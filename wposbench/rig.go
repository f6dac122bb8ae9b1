package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kprof"
	"repro/internal/kstat"
	"repro/internal/workload"
)

// modelHz is the modeled clock rate (the paper's 133 MHz machines).
const modelHz = 133e6

// spec is one workload: the boot configuration and the generated input.
// Every workload runs one client on one engine, so its modeled cycles
// depend on the seed alone.
type spec struct {
	name    string
	cache   int
	xfer    bool // zero-copy regions and vectored RPC batching
	pm      bool // window-message ping-pong instead of file ops
	gen     func(rng *rand.Rand, dir string, n int) *stream
	warmOps int // the set-up warm-up pass ends at the first start at or after this call
	passOps int // about this many calls in one measured pass
}

var specs = map[string]spec{
	// The paper's configuration (no cache, copy transfer) running
	// FI1/FI2 sessions.  A block is 134-166 calls, so the warm-up is
	// exactly two blocks.
	"file-rw": {
		name: "file-rw", gen: genFI,
		warmOps: 200, passOps: 2400,
	},
	// Cache at half the working set, skewed, 512 B-8 KiB transfers.
	"file-cached": {
		name: "file-cached", cache: 256, xfer: true,
		gen: func(rng *rand.Rand, dir string, n int) *stream {
			return genFiles(rng, dir, fileShape{files: 8, recs: 64,
				sizes: []int{512, 1024, 2048, 4096, 8192}, skew: 1.3,
				readFrac: 0.6, seekFrac: 0.5, runMin: 2, runMax: 8}, n)
		},
		warmOps: 600, passOps: 12000,
	},
	"pm-ipc": {
		name: "pm-ipc", pm: true,
		gen:     func(rng *rand.Rand, _ string, n int) *stream { return genPM(rng, n) },
		warmOps: 600, passOps: 12000,
	},
}

// input is the client's generated calls, split into warm-up and pass.
type input struct {
	dir        string
	st         *stream
	warm, pass []op
}

// genInput derives the client's calls from the seed alone.
func genInput(sp spec, seed int64) input {
	in := input{dir: "/C0"}
	in.st = sp.gen(rand.New(rand.NewSource(seed*1000003)), in.dir, sp.warmOps+sp.passOps)
	// The warm-up ends at the first session, exchange or block start
	// at or after warmOps.
	i, _ := slices.BinarySearch(in.st.starts, sp.warmOps)
	cut := len(in.st.ops)
	if i < len(in.st.starts) {
		cut = in.st.starts[i]
	}
	in.warm, in.pass = in.st.ops[:cut], in.st.ops[cut:]
	return in
}

// rig is one booted pair of systems with the workload's files in place:
// Workplace OS and the native baseline, each with its own client.
type rig struct {
	sp     spec
	sys    *core.System
	nat    *core.NativeSystem
	wpos   *client
	native *client
}

// bootConfig is the workload's Workplace OS configuration.
func bootConfig(sp spec) core.Config {
	cfg := core.DefaultConfig()
	cfg.CPUs = 1
	cfg.CacheSectors = sp.cache
	cfg.ZeroCopy = sp.xfer
	cfg.BatchRPC = sp.xfer
	return cfg
}

// setup boots both systems, creates the files and runs the warm-up pass
// on both: everything a measured pass needs, and nothing it measures.
func setup(sp spec, in input) (*rig, error) {
	r := &rig{sp: sp}
	var err error
	if r.sys, err = core.Boot(bootConfig(sp)); err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	if r.nat, err = core.BootNative(cpu.Pentium133(), 16, 16384); err != nil {
		r.close()
		return nil, fmt.Errorf("boot native: %w", err)
	}
	if r.wpos, err = newSystemClient(sp, in.st, r.sys.Kernel.CPU, func(name string) (workload.OS2Process, error) {
		return r.sys.OS2.CreateProcess(name)
	}); err != nil {
		r.close()
		return nil, err
	}
	if r.native, err = newSystemClient(sp, in.st, r.nat.Kernel.CPU, func(name string) (workload.OS2Process, error) {
		return r.nat.Sys.CreateProcess(name)
	}); err != nil {
		r.close()
		return nil, err
	}
	for _, cl := range []*client{r.wpos, r.native} {
		if !sp.pm {
			if err := cl.createFiles(in.dir); err != nil {
				r.close()
				return nil, err
			}
		}
		cl.run(in.warm, nil)
	}
	return r, nil
}

// processes is how many OS/2 processes the client drives: two for the
// PM ping-pong, one otherwise.
func (sp spec) processes() int {
	if sp.pm {
		return 2
	}
	return 1
}

// newSystemClient creates the client's OS/2 processes on one system.
// Its modeled clock is the system's engine cycle counter.
func newSystemClient(sp spec, st *stream, eng *cpu.Engine, create func(string) (workload.OS2Process, error)) (*client, error) {
	var procs []workload.OS2Process
	for i := 0; i < sp.processes(); i++ {
		p, err := create(fmt.Sprintf("bench0.%d", i))
		if err != nil {
			return nil, fmt.Errorf("create process: %w", err)
		}
		procs = append(procs, p)
	}
	return newClient(st, func() uint64 { return eng.Counters().Cycles }, procs...), nil
}

// close stops every server loop of both systems and detaches the
// observation planes, whose registries would otherwise keep the whole
// system reachable.
func (r *rig) close() {
	if r.sys != nil {
		for _, t := range r.sys.Kernel.Tasks() {
			t.Terminate()
		}
		eng := r.sys.Kernel.CPU
		kprof.Detach(eng)
		klat.Detach(eng)
		kflight.Detach(eng)
		kstat.Detach(eng)
	}
	if r.nat != nil {
		for _, t := range r.nat.Kernel.Tasks() {
			t.Terminate()
		}
	}
}

// pass is one measured pass on both clocks.
type pass struct {
	ops       int
	cycles    []uint64 // modeled cycles per client call
	hostNs    []int64  // host ns per client call
	wall      time.Duration
	mallocs   uint64
	bytes     uint64
	peakHeap  uint64
	makespan  uint64 // modeled cycles from first call to last
	nativeCyc uint64 // native modeled cycles for the same calls
}

// measure runs the pass ops against Workplace OS, recording both clocks.
// The caller has made the heap quiet (runtime.GC) so passes start alike.
func (r *rig) measure(in input) pass {
	ps := passStats{cycles: make([]uint64, 0, len(in.pass)), hostNs: make([]int64, 0, len(in.pass))}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cyc0 := r.sys.Kernel.CPU.Counters().Cycles
	t0 := time.Now()
	r.wpos.run(in.pass, &ps)
	wall := time.Since(t0)
	cyc1 := r.sys.Kernel.CPU.Counters().Cycles
	runtime.ReadMemStats(&m1)
	return pass{
		ops: len(ps.cycles), cycles: ps.cycles, hostNs: ps.hostNs, wall: wall,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		peakHeap: ps.peakHeap, makespan: cyc1 - cyc0,
	}
}

// measureNative replays the same pass calls on the native baseline and
// records the modeled cycles they took.
func (r *rig) measureNative(in input, p *pass) {
	eng := r.nat.Kernel.CPU
	c0 := eng.Counters().Cycles
	r.native.run(in.pass, nil)
	p.nativeCyc = eng.Counters().Cycles - c0
}

// check reads every file back on both systems (file workloads) and
// returns the calls both clients issued and how many failed.
func (r *rig) check() (done, failed int) {
	for _, c := range []*client{r.wpos, r.native} {
		if !r.sp.pm {
			c.verify()
		}
		done += c.done
		failed += c.failed
	}
	return done, failed
}
