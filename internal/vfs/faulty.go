package vfs

import (
	"errors"
	"sync"

	"repro/internal/klat"
)

// ErrIO is the injected device failure.
var ErrIO = errors.New("vfs: simulated I/O error")

// FaultyDev wraps a BlockDev and injects failures: after FailAfter
// successful operations, every subsequent read and/or write fails with
// ErrIO until Heal is called.  The file-system packages use it to prove
// that device errors surface as clean errors and never corrupt in-memory
// state.
type FaultyDev struct {
	Inner BlockDev

	mu         sync.Mutex
	failAfter  int64 // remaining successful ops; <0 disables injection
	failReads  bool
	failWrites bool
	reads      uint64
	writes     uint64
	failures   uint64
}

// NewFaultyDev wraps dev with injection disabled.
func NewFaultyDev(dev BlockDev) *FaultyDev {
	return &FaultyDev{Inner: dev, failAfter: -1}
}

// FailAfter arms the injector: n more operations succeed, then reads
// and/or writes fail.
func (f *FaultyDev) FailAfter(n int, reads, writes bool) {
	f.mu.Lock()
	f.failAfter = int64(n)
	f.failReads = reads
	f.failWrites = writes
	f.mu.Unlock()
}

// Heal disables injection.
func (f *FaultyDev) Heal() {
	f.mu.Lock()
	f.failAfter = -1
	f.mu.Unlock()
}

// Stats reports operations passed through and failures injected.
func (f *FaultyDev) Stats() (reads, writes, failures uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads, f.writes, f.failures
}

// shouldFail consumes one op from the budget.
func (f *FaultyDev) shouldFail(isWrite bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if isWrite {
		f.writes++
	} else {
		f.reads++
	}
	if f.failAfter < 0 {
		return false
	}
	if f.failAfter > 0 {
		f.failAfter--
		return false
	}
	if (isWrite && f.failWrites) || (!isWrite && f.failReads) {
		f.failures++
		return true
	}
	return false
}

// ReadSectors implements BlockDev.
func (f *FaultyDev) ReadSectors(sector uint64, buf []byte) error {
	return f.ReadSectorsCtx(klat.Ctx{}, sector, buf)
}

// WriteSectors implements BlockDev.
func (f *FaultyDev) WriteSectors(sector uint64, data []byte) error {
	return f.WriteSectorsCtx(klat.Ctx{}, sector, data)
}

// ReadSectorsCtx implements BlockDev.
func (f *FaultyDev) ReadSectorsCtx(ctx klat.Ctx, sector uint64, buf []byte) error {
	if f.shouldFail(false) {
		return ErrIO
	}
	return f.Inner.ReadSectorsCtx(ctx, sector, buf)
}

// WriteSectorsCtx implements BlockDev.
func (f *FaultyDev) WriteSectorsCtx(ctx klat.Ctx, sector uint64, data []byte) error {
	if f.shouldFail(true) {
		return ErrIO
	}
	return f.Inner.WriteSectorsCtx(ctx, sector, data)
}

// Sectors implements BlockDev.
func (f *FaultyDev) Sectors() uint64 { return f.Inner.Sectors() }
