package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"repro/internal/os2"
	"repro/internal/workload"
)

// client drives one stream into OS/2 processes and checks every output
// against a shadow copy: each file's expected contents, stamped the way
// the chaos workers stamp theirs (serial, path tag, pseudo-random fill),
// and each PM queue's expected message order.  A wrong byte or count, a
// lost or reordered message, or an API error counts as a failed op.
type client struct {
	procs [2]workload.OS2Process // procs[1] is used by PM streams only
	st    *stream
	clock func() uint64 // modeled cycles as this client sees them

	shadow [][]byte
	handle uint32 // handle of the open session's file, 0 when closed
	pos    int64
	buf    []byte
	serial uint64
	inbox  [2][]uint64 // PM args queued for procs[i], oldest first

	heap [1]metrics.Sample // heap probe, one per client: Read writes it

	done    int // calls issued, warm-up included
	failed  int // calls that failed or returned wrong output
	reports int // failure reports printed so far
}

func newClient(st *stream, clock func() uint64, procs ...workload.OS2Process) *client {
	c := &client{st: st, clock: clock, buf: make([]byte, 64<<10)}
	c.heap[0].Name = "/memory/classes/heap/objects:bytes"
	copy(c.procs[:], procs)
	return c
}

// fail records a failed op and reports the first few on stderr.
func (c *client) fail(format string, a ...any) {
	c.failed++
	if c.reports < 5 {
		c.reports++
		fmt.Fprintf(os.Stderr, "wposbench: oracle: "+format+"\n", a...)
	}
}

// createFiles makes the stream's directory and files at their initial
// sizes.  Setup failures are not op failures: the run cannot start.
func (c *client) createFiles(dir string) error {
	p := c.procs[0]
	if e := p.DosMkdir(dir); e != os2.NoError {
		return fmt.Errorf("mkdir %s: %v", dir, e)
	}
	c.shadow = make([][]byte, len(c.st.paths))
	for f, path := range c.st.paths {
		data := make([]byte, c.st.init[f])
		for off := 0; off < len(data); off += recBytes {
			c.serial++
			stamp(data[off:off+recBytes], c.serial, pathTag(path))
		}
		h, e := p.DosOpen(path, true, true)
		if e != os2.NoError {
			return fmt.Errorf("create %s: %v", path, e)
		}
		if len(data) > 0 {
			if n, e := p.DosWrite(h, data); e != os2.NoError || n != len(data) {
				return fmt.Errorf("fill %s: wrote %d of %d: %v", path, n, len(data), e)
			}
		}
		if e := p.DosClose(h); e != os2.NoError {
			return fmt.Errorf("close %s: %v", path, e)
		}
		c.shadow[f] = data
	}
	return nil
}

// passStats is what one measured pass of a client recorded.
type passStats struct {
	cycles   []uint64 // modeled cycles per call
	hostNs   []int64  // host ns per call
	peakHeap uint64   // highest heap-object bytes sampled
}

// heapBytes reads the live-plus-unswept heap object bytes.
func (c *client) heapBytes() uint64 {
	metrics.Read(c.heap[:])
	return c.heap[0].Value.Uint64()
}

// run executes ops, timing each on both clocks when ps is non-nil.
func (c *client) run(ops []op, ps *passStats) {
	for i := range ops {
		o := &ops[i]
		if ps == nil {
			c.do(o)
			continue
		}
		cyc0, t0 := c.clock(), time.Now()
		c.do(o)
		ns, cyc := time.Since(t0).Nanoseconds(), c.clock()-cyc0
		ps.cycles = append(ps.cycles, cyc)
		ps.hostNs = append(ps.hostNs, ns)
		if i%64 == 0 {
			ps.peakHeap = max(ps.peakHeap, c.heapBytes())
		}
	}
	if ps != nil {
		ps.peakHeap = max(ps.peakHeap, c.heapBytes())
	}
}

// do issues one call and checks its result.
func (c *client) do(o *op) {
	c.done++
	p := c.procs[o.proc]
	switch o.kind {
	case opOpen:
		h, e := p.DosOpen(c.st.paths[o.file], true, o.create)
		if e != os2.NoError {
			c.fail("open %s: %v", c.st.paths[o.file], e)
			return
		}
		c.handle, c.pos = h, 0
	case opClose:
		if e := p.DosClose(c.handle); e != os2.NoError {
			c.fail("close %s: %v", c.st.paths[o.file], e)
		}
		c.handle = 0
	case opSeek:
		if e := p.DosSetFilePtr(c.handle, o.off); e != os2.NoError {
			c.fail("seek %s to %d: %v", c.st.paths[o.file], o.off, e)
			return
		}
		c.pos = o.off
	case opRead:
		buf := c.buf[:o.size]
		n, e := p.DosRead(c.handle, buf)
		want := c.shadow[o.file][c.pos : c.pos+int64(o.size)]
		if e != os2.NoError || n != o.size || !bytes.Equal(buf, want) {
			c.fail("read %s at %d: got %d of %d bytes (%v), contents match %v",
				c.st.paths[o.file], c.pos, n, o.size, e, bytes.Equal(buf, want))
		}
		c.pos += int64(o.size)
	case opWrite:
		data := c.buf[:o.size]
		tag := pathTag(c.st.paths[o.file])
		for off := 0; off < o.size; off += recBytes {
			c.serial++
			stamp(data[off:min(off+recBytes, o.size)], c.serial, tag)
		}
		n, e := p.DosWrite(c.handle, data)
		if e != os2.NoError || n != o.size {
			c.fail("write %s at %d: wrote %d of %d: %v", c.st.paths[o.file], c.pos, n, o.size, e)
		}
		sh := c.shadow[o.file]
		if end := c.pos + int64(o.size); end > int64(len(sh)) {
			sh = append(sh, make([]byte, end-int64(len(sh)))...)
		}
		copy(sh[c.pos:], data)
		c.shadow[o.file] = sh
		c.pos += int64(o.size)
	case opDelete:
		if e := p.DosDelete(c.st.paths[o.file]); e != os2.NoError {
			c.fail("delete %s: %v", c.st.paths[o.file], e)
		}
		c.shadow[o.file] = nil
	case opPost:
		dst := 1 - o.proc
		msg := uint32(0x0400 + o.proc)
		if e := p.WinPostMsg(c.procs[dst].PID(), msg, uint32(o.arg)); e != os2.NoError {
			c.fail("post from %d: %v", o.proc, e)
			return
		}
		c.inbox[dst] = append(c.inbox[dst], o.arg)
	case opGet:
		m, e := p.WinGetMsg(false)
		q := c.inbox[o.proc]
		if e != os2.NoError || len(q) == 0 || m.Arg != uint32(q[0]) || m.Msg != uint32(0x0400+1-o.proc) {
			c.fail("get at %d: %+v (err %v), queued %v", o.proc, m, e, q)
		}
		if len(q) > 0 {
			c.inbox[o.proc] = q[1:]
		}
	case opGfx:
		p.GfxLibCall(o.arg)
	}
}

// verify reads every file of the stream back whole and checks it against
// its shadow copy, so a lost write fails the run even when the stream
// never reads that file again.  Each read counts as a call.
func (c *client) verify() {
	p := c.procs[0]
	for f, path := range c.st.paths {
		c.done++
		h, e := p.DosOpen(path, false, false)
		if e != os2.NoError {
			c.fail("verify: open %s: %v", path, e)
			continue
		}
		want := c.shadow[f]
		got := make([]byte, len(want)+1) // one more, to catch a file that is too long
		if n, e := p.DosRead(h, got); e != os2.NoError || n != len(want) || !bytes.Equal(got[:n], want) {
			c.fail("verify %s: read %d of %d bytes (%v)", path, n, len(want), e)
		}
		if e := p.DosClose(h); e != os2.NoError {
			c.fail("verify: close %s: %v", path, e)
		}
	}
}

// stamp fills one record (at least 16 bytes) with a diagnosable
// deterministic pattern: the write serial, the file's tag, then a
// xorshift fill seeded by both.
func stamp(rec []byte, serial, tag uint64) {
	binary.LittleEndian.PutUint64(rec, serial)
	binary.LittleEndian.PutUint64(rec[8:], tag)
	x := serial*0x9E3779B97F4A7C15 ^ tag | 1
	for i := 16; i+8 <= len(rec); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(rec[i:], x)
	}
}

// pathTag hashes a path (FNV-1a) into the stamp's identity field.
func pathTag(path string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(path); i++ {
		h = (h ^ uint64(path[i])) * 1099511628211
	}
	return h
}
