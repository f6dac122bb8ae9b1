// Command wposbench is the repository's benchmark.  It drives seeded
// OS/2 client traffic through the public os2.Process API into a booted
// Workplace OS (core.System), replays the same calls on the native
// baseline (mono), checks every output against a shadow copy, and prints
// one JSON result line.
//
//	go run . --workload file-rw --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: modeled cycles per
// call, modeled throughput and the WPOS/native ratio on the simulated
// machine's clock, and set-up time, allocations and heap of the Go
// simulator.  With --trace 1 it reports the per-layer metrics instead:
// counts and modeled cycles read from the kstat and kprof planes,
// host time per call and per second, host probes timed around each
// layer's public calls, and the host CPU profile's self time per package.
//
// A run repeats rounds until --seconds is spent.  Each round sets up
// fresh systems setupReps times (each timed as a setup_s sample, the last
// one kept) and measures one pass of the same generated calls.  Every
// workload runs on one engine, so every round must model exactly the
// same cycles: a round that does not, a traced round that models other
// cycles than an untraced one, or a kprof profile whose total differs
// from the engine counters makes the run incorrect, and the determinism
// line on stdout shows the values.  Every metric but the heap high-water
// mark is a median over rounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "file-rw", "workload: file-rw, file-cached or pm-ipc")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measurement time")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	sp, ok := specs[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	budget := time.Duration(*seconds) * time.Second
	// A deadlocked system under test must still end the run, with an
	// error and no result.
	time.AfterFunc(max(170*time.Second, 2*budget+time.Minute), func() {
		fmt.Fprintf(os.Stderr, "wposbench: %s: run did not finish in time\n", sp.name)
		os.Exit(1)
	})
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(sp, *seed, budget)
	} else {
		res, err = runPlain(sp, *seed, budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "wposbench: %s: %v\n", sp.name, err)
		os.Exit(1)
	}
	emit(res)
}

// emit prints v as one JSON line.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wposbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// setupReps is how many times a round sets up fresh systems.  setup_s is
// the median over every set-up of the run.
const setupReps = 3

// round is its set-ups plus one measured pass, reduced to its metrics so
// the benchmark's own memory does not grow with the number of rounds.
type round struct {
	setups   []time.Duration
	modeled  map[string]float64
	hostRate float64 // client calls per host second
	hostP50  float64 // host µs per call
	hostP99  float64
	allocs   float64 // heap allocations per call
	bytes    float64 // heap bytes per call
	peakHeap uint64
}

// doRound sets up fresh systems setupReps times, each from a collected
// heap, and keeps the last; it measures one pass on Workplace OS and
// replays it on the native baseline.  The discarded systems' warm-up
// calls are checked and counted like the kept one's.  observe, when
// non-nil, wraps the Workplace OS pass (the traced run opens its windows
// there).
func doRound(sp spec, in input, observe func(*rig, func())) (round, int, int, error) {
	var rd round
	var r *rig
	var done, failed int
	for i := 0; i < setupReps; i++ {
		if r != nil {
			d, f := r.check()
			done, failed = done+d, failed+f
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = setup(sp, in); err != nil {
			return round{}, 0, 0, err
		}
		rd.setups = append(rd.setups, time.Since(t0))
	}
	defer r.close()
	runtime.GC()
	var p pass
	if observe != nil {
		observe(r, func() { p = r.measure(in) })
	} else {
		p = r.measure(in)
	}
	r.measureNative(in, &p)
	d, f := r.check()
	done, failed = done+d, failed+f
	rd.modeled = map[string]float64{
		"op_cycles_p50":     float64(quantile(p.cycles, 0.50)),
		"op_cycles_p99":     float64(quantile(p.cycles, 0.99)),
		"modeled_ops_per_s": float64(p.ops) * modelHz / float64(p.makespan),
		"native_ratio":      float64(p.makespan) / float64(p.nativeCyc),
	}
	rd.hostRate = float64(p.ops) / p.wall.Seconds()
	rd.hostP50 = float64(quantile(p.hostNs, 0.50)) / 1e3
	rd.hostP99 = float64(quantile(p.hostNs, 0.99)) / 1e3
	rd.allocs = float64(p.mallocs) / float64(p.ops)
	rd.bytes = float64(p.bytes) / float64(p.ops)
	rd.peakHeap = p.peakHeap
	return rd, done, failed, nil
}

// runRounds repeats rounds until the budget would be overrun by one more,
// but makes at least minRounds whatever the budget says: setup_s is a
// median and the determinism check needs a repeat.
func runRounds(sp spec, in input, minRounds int, budget time.Duration, observe func(int, *rig, func())) ([]round, int, int, error) {
	start := time.Now()
	var rounds []round
	var attempted, failed int
	for i := 0; ; i++ {
		var obs func(*rig, func())
		if observe != nil {
			i := i
			obs = func(r *rig, body func()) { observe(i, r, body) }
		}
		rd, a, f, err := doRound(sp, in, obs)
		if err != nil {
			return nil, 0, 0, err
		}
		rounds = append(rounds, rd)
		attempted += a
		failed += f
		elapsed := time.Since(start)
		if len(rounds) >= minRounds && elapsed+elapsed/time.Duration(len(rounds)) > budget {
			return rounds, attempted, failed, nil
		}
	}
}

func runPlain(sp spec, seed int64, budget time.Duration) (result, error) {
	rounds, attempted, failed, err := runRounds(sp, genInput(sp, seed), 3, budget, nil)
	if err != nil {
		return result{}, err
	}
	m := endToEnd(rounds)
	report, identical := determinism(sp, rounds)
	emit(map[string]any{"determinism": report, "host": hostTiming(rounds)})
	return result{Correct: failed == 0 && identical, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// medianOf is the median over rounds of f.
func medianOf(rounds []round, f func(round) float64) float64 {
	v := make([]float64, len(rounds))
	for i, rd := range rounds {
		v[i] = f(rd)
	}
	return median(v)
}

// endToEnd reduces the rounds to the end-to-end metrics: each is the
// median over rounds, except the heap high-water mark, which is the
// largest any round reached.  Host time per call and per second are not
// among them: on a shared host they drift by tens of percent between
// runs, more than any bound could absorb, so the traced run reports them
// (hostTiming) as per-layer metrics.
func endToEnd(rounds []round) map[string]metric {
	out := map[string]metric{}
	for k, unit := range map[string]string{
		"op_cycles_p50": "cycles", "op_cycles_p99": "cycles",
		"modeled_ops_per_s": "1/s", "native_ratio": "ratio",
	} {
		out[k] = metric{medianOf(rounds, func(rd round) float64 { return rd.modeled[k] }), unit}
	}
	var peak uint64
	for _, rd := range rounds {
		peak = max(peak, rd.peakHeap)
	}
	var setups []float64
	for _, rd := range rounds {
		for _, d := range rd.setups {
			setups = append(setups, d.Seconds())
		}
	}
	out["setup_s"] = metric{median(setups), "s"}
	out["host_allocs_per_op"] = metric{medianOf(rounds, func(rd round) float64 { return rd.allocs }), "count"}
	out["host_bytes_per_op"] = metric{medianOf(rounds, func(rd round) float64 { return rd.bytes }), "B"}
	out["peak_heap_mb"] = metric{float64(peak) / (1 << 20), "MB"}
	return out
}

// hostTiming is the host-clock throughput and per-call latency of the
// rounds, medians over rounds.
func hostTiming(rounds []round) map[string]metric {
	return map[string]metric{
		"host_ops_per_s": {medianOf(rounds, func(rd round) float64 { return rd.hostRate }), "1/s"},
		"host_op_us_p50": {medianOf(rounds, func(rd round) float64 { return rd.hostP50 }), "us"},
		"host_op_us_p99": {medianOf(rounds, func(rd round) float64 { return rd.hostP99 }), "us"},
	}
}

// determinism reports, per modeled metric, the values the rounds gave
// and their spread ((max-min)/median), and whether every round gave the
// same values.  Every round replays the same calls on fresh single-engine
// systems, so any nonzero spread is a model defect.
func determinism(sp spec, rounds []round) (map[string]any, bool) {
	vals := map[string][]float64{}
	for _, rd := range rounds {
		for k, v := range rd.modeled {
			vals[k] = append(vals[k], v)
		}
	}
	spread := map[string]float64{}
	exact := true
	for k, v := range vals {
		lo, hi := slices.Min(v), slices.Max(v)
		spread[k] = (hi - lo) / median(v)
		exact = exact && lo == hi
	}
	if !exact {
		fmt.Fprintf(os.Stderr, "wposbench: %s: DEFECT: rounds of identical calls modeled different cycles: %v\n", sp.name, vals)
	}
	return map[string]any{"workload": sp.name, "rounds": len(rounds), "identical": exact, "spread": spread, "values": vals}, exact
}

// quantile returns the q-quantile (nearest rank) of v without reordering it.
func quantile[T int64 | uint64](v []T, q float64) T {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
