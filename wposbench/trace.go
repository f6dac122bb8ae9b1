package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cpu"
	"repro/internal/kprof"
	"repro/internal/kstat"
)

// The traced run gives the per-layer metrics.  It cycles through four
// kinds of round: untraced (exactly the end-to-end run's), modeled trace,
// untraced, host profile.  In a modeled-trace round the Workplace OS pass
// runs inside an open kprof window between two kstat snapshots: counts
// come from the kstat and engine-counter deltas, modeled cycles per layer
// from kprof's context frames (rpc:<server>).  In a host-profile
// round the pass runs under the Go CPU profiler alone, so host self time
// per package is the untraced system's, not kprof's.  The host probes run
// last.  Every traced round must model exactly what the untraced ones do,
// and every kprof total must equal its engine-counter delta, or the run is
// incorrect; it also reports what each instrument cost in host throughput.

// layerWindow is what one modeled-trace pass observed.
type layerWindow struct {
	ops   uint64
	stats kstat.Snapshot // delta over the pass
	ctr   cpu.Counters   // engine counter delta
	prof  kprof.Profile
	exact bool // kprof total cycles == engine counter delta
}

// probeShare is the part of the budget the host probes get.
const probeShare = 0.15

// Round kinds of the traced run, by round index mod 4.
const (
	roundModeled = 1
	roundProfile = 3
)

func runTraced(sp spec, seed int64, budget time.Duration) (result, error) {
	in := genInput(sp, seed)
	var wins []layerWindow
	hp := newHostProfile()
	var traceErr error
	observe := func(i int, r *rig, body func()) {
		var err error
		switch i % 4 {
		case roundModeled:
			var w layerWindow
			w, err = modeledTrace(r, body)
			w.ops = uint64(len(in.pass))
			wins = append(wins, w)
		case roundProfile:
			err = hostTrace(body, hp)
		default:
			body()
		}
		if err != nil && traceErr == nil {
			traceErr = err
		}
	}
	rounds, attempted, failed, err := runRounds(sp, in, 4, time.Duration(float64(budget)*(1-probeShare)), observe)
	if err != nil {
		return result{}, err
	}
	if traceErr != nil {
		return result{}, traceErr
	}
	probed, err := probes()
	if err != nil {
		return result{}, err
	}

	m := layerMetrics(wins, hp)
	for k, v := range probed {
		m[k] = v
	}
	kind := map[int][]round{}
	for i, rd := range rounds {
		k := i % 4
		if k != roundModeled && k != roundProfile {
			k = 0 // untraced
		}
		kind[k] = append(kind[k], rd)
	}
	plain := kind[0]
	match := true
	for _, rd := range append(kind[roundModeled], kind[roundProfile]...) {
		for k, v := range rd.modeled {
			match = match && v == plain[0].modeled[k]
		}
	}
	if !match {
		fmt.Fprintf(os.Stderr, "wposbench: %s: DEFECT: a traced pass modeled different cycles than the untraced one\n", sp.name)
	}
	report, identical := determinism(sp, rounds)
	exact := m["kprof.exact"].Value == 1
	if !exact {
		fmt.Fprintf(os.Stderr, "wposbench: %s: DEFECT: kprof totals differ from the engine counter deltas\n", sp.name)
	}
	rate := func(rs []round) float64 { return hostTiming(rs)["host_ops_per_s"].Value }
	for k, v := range hostTiming(plain) {
		m[k] = v
	}
	m["trace.modeled_match"] = metric{b2f(match), "bool"}
	m["trace.kprof_host_ops_ratio"] = metric{rate(kind[roundModeled]) / rate(plain), "ratio"}
	m["trace.pprof_host_ops_ratio"] = metric{rate(kind[roundProfile]) / rate(plain), "ratio"}
	m["ops_failed_frac"] = metric{float64(failed) / float64(attempted), "fraction"}

	emit(map[string]any{
		"determinism": report,
		"top_host_frames": map[string]any{
			"samples":     hp.total,
			"self":        hp.top(hp.leaf, 15),
			"by_internal": hp.top(hp.owner, 15),
		},
		"modeled_untraced": plain[0].modeled,
		"modeled_traced":   kind[roundModeled][0].modeled,
	})
	correct := failed == 0 && identical && match && exact
	return result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// hostTrace runs body (one measured pass) under the Go CPU profiler.
func hostTrace(body func(), hp *hostProfile) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	body()
	pprof.StopCPUProfile()
	return hp.add(buf.Bytes())
}

// modeledTrace runs body (one measured pass) inside an open kprof window
// between two kstat and engine-counter snapshots.
func modeledTrace(r *rig, body func()) (layerWindow, error) {
	eng := r.sys.Kernel.CPU
	pr := kprof.Attach(eng)
	s0, c0 := r.sys.Stats.Snapshot(), eng.Counters()
	pr.Enable()
	body()
	pr.Disable()
	s1, c1 := r.sys.Stats.Snapshot(), eng.Counters()

	w := layerWindow{stats: s1.Delta(s0), ctr: c1.Sub(c0), prof: pr.Snapshot()}
	cyc, _, _ := w.prof.Totals()
	w.exact = cyc == w.ctr.Cycles
	return w, nil
}

// layerMetrics reduces the traced windows to the per-layer metrics,
// summing every window so a count per op is exact.
func layerMetrics(wins []layerWindow, hp *hostProfile) map[string]metric {
	var ops float64
	var ctr cpu.Counters
	counters := map[string]uint64{}
	kinds := map[string]uint64{}
	frames := map[string]uint64{} // cycles charged under each rpc:<server> frame
	var rpcTop uint64             // cycles under any outermost rpc: frame
	var profCycles uint64
	exact := true
	for _, w := range wins {
		ops += float64(w.ops)
		ctr = addCounters(ctr, w.ctr)
		for k, v := range w.stats.Counters {
			counters[k] += v
		}
		for _, s := range w.prof.Samples {
			kinds[s.Kind] += s.Cycles
			profCycles += s.Cycles
			seen := map[string]bool{}
			for _, f := range s.Stack {
				if strings.HasPrefix(f, "rpc:") && !seen[f] {
					seen[f] = true
					frames[f] += s.Cycles
				}
			}
			if len(s.Stack) > 0 && strings.HasPrefix(s.Stack[0], "rpc:") {
				rpcTop += s.Cycles
			}
		}
		exact = exact && w.exact
	}
	sum := func(prefix string, skip ...string) (n uint64) {
	next:
		for k, v := range counters {
			if !strings.HasPrefix(k, prefix) {
				continue
			}
			for _, s := range skip {
				if strings.HasSuffix(k, s) {
					continue next
				}
			}
			n += v
		}
		return n
	}
	perOp := func(n uint64) float64 { return float64(n) / ops }
	frac := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	hits, misses := counters["bcache.hits"], counters["bcache.misses"]
	rpcs := counters["mach.rpc.calls"]
	m := map[string]metric{
		"mach.rpc_per_op":              {perOp(rpcs), "count"},
		"mach.trap_per_op":             {perOp(counters["mach.trap.count"]), "count"},
		"mach.kernel_entries_per_op":   {perOp(counters["mach.kernel.entries"]), "count"},
		"mach.switches_per_op":         {perOp(ctr.Switches), "count"},
		"mach.rpc_batched_per_op":      {perOp(counters["mach.rpc.batched"]), "count"},
		"mach.ool_bytes_mapped_per_op": {perOp(counters["mach.ool.bytes_mapped"]), "B"},
		"mach.cycles_per_rpc":          {frac(rpcTop, rpcs), "cycles"},

		"cpu.cpi":               {ctr.CPI(), "cycles"},
		"cpu.imiss_per_op":      {perOp(ctr.ICacheMisses), "count"},
		"cpu.dmiss_per_op":      {perOp(ctr.DCacheMisses), "count"},
		"cpu.tlb_miss_per_op":   {perOp(ctr.TLBMisses), "count"},
		"cpu.bus_cycles_per_op": {perOp(ctr.BusCycles), "cycles"},

		"os2.api_per_op":           {perOp(sum("os2.api.")), "count"},
		"os2.server_cycles_per_op": {perOp(frames["rpc:os2server"]), "cycles"},

		"vfs.ops_per_op":           {perOp(sum("vfs.ops.")), "count"},
		"vfs.server_cycles_per_op": {perOp(frames["rpc:fileserver"]), "cycles"},

		"bcache.hit_ratio":             {frac(hits, hits+misses), "fraction"},
		"bcache.readahead_per_op":      {perOp(counters["bcache.readahead"]), "count"},
		"bcache.writeback_per_op":      {perOp(counters["bcache.writeback"]), "count"},
		"drivers.io_per_op":            {perOp(sum("drivers.io.", ":handle")), "count"},
		"drivers.server_cycles_per_op": {perOp(frames["rpc:blockdrv"]), "cycles"},

		"kprof.exact": {b2f(exact), "bool"},
	}
	// Migration stalls exist only on multi-engine boots.
	for k := cpu.ProfKind(0); k < cpu.NumProfKinds; k++ {
		if k != cpu.ProfMigrate {
			m["cpu.share."+k.String()] = metric{frac(kinds[k.String()], profCycles), "fraction"}
		}
	}
	rest := hp.total
	for _, pkg := range []string{"mach", "cpu", "vfs", "fat", "bcache", "drivers", "os2", "klat", "kflight", "kstat", "runtime_gc"} {
		m["host.self_share."+pkg] = metric{hp.share(hp.pkg[pkg]), "fraction"}
		rest -= hp.pkg[pkg]
	}
	m["host.self_share.other"] = metric{hp.share(rest), "fraction"}
	return m
}

// addCounters sums two counter snapshots field by field.
func addCounters(a, b cpu.Counters) cpu.Counters {
	a.Instructions += b.Instructions
	a.Cycles += b.Cycles
	a.BusCycles += b.BusCycles
	a.ICacheMisses += b.ICacheMisses
	a.DCacheMisses += b.DCacheMisses
	a.TLBMisses += b.TLBMisses
	a.Switches += b.Switches
	return a
}
