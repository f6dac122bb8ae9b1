package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bcache"
	"repro/internal/cpu"
	"repro/internal/drivers"
	"repro/internal/fat"
	"repro/internal/iosys"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kstat"
	"repro/internal/mach"
	"repro/internal/vfs"
)

// The host probes time one layer's public call in isolation, on a system
// built from that layer's public constructors: host ns and heap
// allocations per call, the host-clock half of the per-layer split.

// probeBatch is the host time one timed batch of a probe aims for.
const probeBatch = 25 * time.Millisecond

// probe times f: a warm-up, a batch size calibrated to probeBatch, then
// the median ns per call over seven batches and the allocations per call
// over one more.  Any failed call fails the probe.
func probe(f func() error) (ns, allocs float64, err error) {
	batch := func(n int) (time.Duration, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	if _, err := batch(16); err != nil {
		return 0, 0, err
	}
	n := 1
	for {
		d, err := batch(n)
		if err != nil {
			return 0, 0, err
		}
		if d >= probeBatch || n >= 1<<20 {
			break
		}
		n *= 2
	}
	var per []float64
	for b := 0; b < 7; b++ {
		d, err := batch(n)
		if err != nil {
			return 0, 0, err
		}
		per = append(per, float64(d.Nanoseconds())/float64(n))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err = batch(n)
	runtime.ReadMemStats(&m1)
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(n), err
}

// probes runs every layer probe and returns its metrics by name.
func probes() (map[string]metric, error) {
	type setupFn func() (call func() error, cleanup func(), err error)
	out := map[string]metric{}
	for _, p := range []struct {
		name  string
		setup setupFn
	}{
		{"mach.call32", func() (func() error, func(), error) { return callProbe(32, false, false) }},
		{"mach.call32_planes", func() (func() error, func(), error) { return callProbe(32, false, true) }},
		{"mach.region8k", func() (func() error, func(), error) { return callProbe(8192, true, false) }},
		{"vfs.readat", func() (func() error, func(), error) { return readAtProbe(false) }},
		{"vfs.readat_region", func() (func() error, func(), error) { return readAtProbe(true) }},
		{"bcache.hit", func() (func() error, func(), error) { return cacheProbe(true) }},
		{"bcache.miss", func() (func() error, func(), error) { return cacheProbe(false) }},
		{"drivers.flushv", flushVProbe},
	} {
		call, cleanup, err := p.setup()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		ns, allocs, err := probe(call)
		cleanup()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", p.name, err)
		}
		out[p.name+"_ns"] = metric{ns, "ns"}
		out[p.name+"_allocs"] = metric{allocs, "count"}
	}
	return out, nil
}

// terminate stops every task of a probe kernel.
func terminate(k *mach.Kernel) {
	for _, t := range k.Tasks() {
		t.Terminate()
	}
}

// callProbe is one synchronous Thread.Call to an echo server on a bare
// kernel: a size-byte inline body, or a size-byte region descriptor.
// planes attaches kstat, kflight and klat first, as a booted system has.
func callProbe(size int, region, planes bool) (func() error, func(), error) {
	k := mach.New(cpu.Pentium133())
	if planes {
		kstat.Attach(k.CPU)
		kflight.Attach(k.CPU)
		klat.Attach(k.CPU)
	}
	cleanup := func() {
		terminate(k)
		klat.Detach(k.CPU)
		kflight.Detach(k.CPU)
		kstat.Detach(k.CPU)
	}
	srv := k.NewTask("echo")
	recv, err := srv.AllocatePort()
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	reply := &mach.Message{ID: 1}
	if _, err := srv.Spawn("loop", func(th *mach.Thread) {
		th.Serve(recv, func(*mach.Message) *mach.Message { return reply })
	}); err != nil {
		cleanup()
		return nil, nil, err
	}
	cl := k.NewTask("client")
	dest, err := cl.InsertRight(srv, recv, mach.DispMakeSend)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	th, err := cl.NewBoundThread("main")
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	data := make([]byte, size)
	call := func() error {
		req := &mach.Message{ID: 2, Body: data}
		if region {
			req = &mach.Message{ID: 2, Regions: []mach.RegionDesc{{Base: 0x4000_0000, Len: uint64(size), Data: data}}}
		}
		_, err := th.Call(dest, req, mach.CallOpts{})
		return err
	}
	return call, cleanup, nil
}

// readAtProbe is an 8 KiB vfs client ReadAt of a FAT file on a RAM disk,
// moved by copy or by region descriptor.
func readAtProbe(region bool) (func() error, func(), error) {
	k := mach.New(cpu.Pentium133())
	cleanup := func() { terminate(k) }
	srv, err := vfs.NewServer(k, 0)
	if err != nil {
		return nil, nil, err
	}
	srv.SetTransfer(vfs.Transfer{ZeroCopy: region})
	dev := vfs.NewRAMDisk(4096)
	if err := fat.Format(dev); err != nil {
		cleanup()
		return nil, nil, err
	}
	if err := srv.MountVolume("/", fat.New(), dev); err != nil {
		cleanup()
		return nil, nil, err
	}
	th, err := k.NewTask("client").NewBoundThread("main")
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	c, err := srv.NewClient(th, vfs.ProfileOS2)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	f, err := c.Open("/PROBE.DAT", true, true)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	buf := make([]byte, 8192)
	if _, err := f.WriteAt(buf, 0); err != nil {
		cleanup()
		return nil, nil, err
	}
	read := func() error {
		if n, err := f.ReadAt(buf, 0); err != nil || n != len(buf) {
			return fmt.Errorf("read %d of %d: %v", n, len(buf), err)
		}
		return nil
	}
	return read, cleanup, nil
}

// cacheProbe is one 512 B bcache.Cache.ReadSectors: always the same
// cached sector (hit), or a sweep over a device 64 times the cache with
// read-ahead off, so every read misses and evicts.
func cacheProbe(hit bool) (func() error, func(), error) {
	k := mach.New(cpu.Pentium133())
	const sectors = 4096
	c := bcache.New(k.CPU, k.Layout(), vfs.NewRAMDisk(sectors), bcache.Config{CapacitySectors: sectors / 64, ReadAhead: -1})
	buf := make([]byte, 512)
	var next uint64
	read := func() error {
		s := uint64(0)
		if !hit {
			s = next
			next = (next + 1) % sectors
		}
		return c.ReadSectors(s, buf)
	}
	return read, func() {}, nil
}

// flushVProbe is one vectored WriteSectorsV of four 1 KiB runs through
// the user-level block driver, the buffer cache's write-behind path.
func flushVProbe() (func() error, func(), error) {
	k := mach.New(cpu.Pentium133())
	cleanup := func() { terminate(k) }
	layout := k.Layout()
	intr := iosys.NewInterruptController(k.CPU, layout, 32)
	dma := iosys.NewDMAController(k.CPU, layout, 4)
	const sectors = 4096
	disk, err := drivers.NewDisk(k.CPU, dma, intr, 14, sectors)
	if err != nil {
		return nil, nil, err
	}
	ub, err := drivers.NewUserBlockDriver(k, layout, disk, iosys.NewHRM(k.CPU, layout), intr, 0)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	ub.SetTransfer(false, true)
	th, err := k.NewTask("fileserver").NewBoundThread("diskio")
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	dev := drivers.NewVectorSectorDev(ub, th, sectors)
	runs := make([]vfs.SectorRun, 4)
	for i := range runs {
		runs[i] = vfs.SectorRun{Sector: uint64(64 * i), Data: make([]byte, 1024)}
	}
	flush := func() error {
		_, err := dev.WriteSectorsV(runs)
		return err
	}
	return flush, cleanup, nil
}
