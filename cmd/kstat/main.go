// Command kstat boots Workplace OS, drives a workload, and renders the
// system's metrics fabric — queried from the monitor server over the
// system's own RPC, found through the name service like any other shared
// service.
//
// Usage:
//
//	kstat -format text                      # one snapshot, human-readable
//	kstat -format json                      # one snapshot, JSON
//	kstat -format prom                      # Prometheus exposition
//	kstat -format top -iters 5              # live top-style view
//	kstat -family mach.rpc.                 # filter to one metric family
//	kstat -workload none                    # just the booted system
//
// Boot flags are the shared set of internal/cli: -driver, -mem, -pool,
// -cache, -cpus, -simple-names, -zerocopy, -batch.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/kstat"
	"repro/internal/monitor"
	"repro/internal/workload"
)

func main() {
	var (
		boot     = cli.BootFlags()
		clients  = flag.Int("clients", 1, "concurrent copies of the workload (exercises the SMP dispatcher)")
		wl       = flag.String("workload", "file1", "traffic source: "+cli.WorkloadNames+", none")
		format   = flag.String("format", "text", "output: text, json, prom, top")
		family   = flag.String("family", "", "restrict output to metrics with this name prefix")
		iters    = flag.Int("iters", 5, "top mode: workload iterations (one frame each)")
		interval = flag.Duration("interval", 500*time.Millisecond, "top mode: delay between frames")
	)
	flag.Parse()

	var row workload.Row
	haveRow := *wl != "none"
	if haveRow {
		row = cli.Row(*wl)
	}

	s := boot.System()
	c := cli.Monitor(s, "kstat-cli")

	if *format == "top" {
		if !haveRow {
			cli.Usagef("top mode needs a workload to drive traffic")
		}
		top(s, c, row, *iters, *interval)
		return
	}

	if haveRow {
		if *clients > 1 {
			// Concurrent copies: each goroutine runs the full workload
			// against its own processes; on an SMP boot the dispatcher
			// spreads the resulting RPC bursts across the engines.
			var wg sync.WaitGroup
			errs := make(chan error, *clients)
			for i := 0; i < *clients; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := workload.Run(row, s.WorkloadEnv()); err != nil {
						errs <- err
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				cli.Check(err)
			}
		} else {
			_, err := workload.Run(row, s.WorkloadEnv())
			cli.Check(err)
		}
	}
	var snap kstat.Snapshot
	var err error
	if *family != "" {
		snap, err = c.Family(*family)
	} else {
		snap, _, err = c.Snapshot()
	}
	cli.Check(err)
	switch *format {
	case "text":
		cli.Check(kstat.WriteText(os.Stdout, snap))
	case "json":
		cli.Check(kstat.WriteJSON(os.Stdout, snap))
	case "prom":
		cli.Check(kstat.WriteProm(os.Stdout, snap))
	default:
		cli.Usagef("unknown format %q", *format)
	}
}

// top renders a live view: each frame runs the workload once, polls the
// monitor for the delta since the previous frame, and redraws.
func top(s *core.System, c *monitor.Client, row workload.Row, iters int, interval time.Duration) {
	_, baseline, err := c.Snapshot()
	cli.Check(err)
	// Per-engine cycle gauges are absolute; utilization needs the
	// frame-to-frame delta, kept here across frames.
	prevCyc := map[int]int64{}
	for i := 0; i < iters; i++ {
		start := time.Now()
		res, err := workload.Run(row, s.WorkloadEnv())
		cli.Check(err)
		d, next, err := c.DeltaSince(baseline)
		cli.Check(err)
		baseline = next
		fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		renderFrame(d, res, i+1, iters, time.Since(start), prevCyc)
		if i < iters-1 {
			time.Sleep(interval)
		}
	}
}

func renderFrame(d kstat.Snapshot, res workload.Result, frame, iters int, wall time.Duration, prevCyc map[int]int64) {
	fmt.Printf("kstat top — %s  frame %d/%d  (%d modeled cycles, %v wall)\n\n",
		res.Row, frame, iters, res.Cycles, wall.Round(time.Millisecond))

	calls := d.Counters["mach.rpc.calls"]
	fmt.Printf("RPC       %8d calls  %6d errors  %10d B in  %10d B out  kernel entries %d\n",
		calls, d.Counters["mach.rpc.errors"],
		d.Counters["mach.rpc.bytes_in"], d.Counters["mach.rpc.bytes_out"],
		d.Counters["mach.kernel.entries"])
	fmt.Printf("fastpath  %8d batched sub-calls  %10d B OOL-mapped\n",
		d.Counters["mach.rpc.batched"], d.Counters["mach.ool.bytes_mapped"])
	if h, ok := d.Histograms["mach.rpc.latency_cycles"]; ok && h.Count > 0 {
		fmt.Printf("latency   p50=%d  p99=%d  max=%d cycles  (n=%d, mean=%.0f)\n",
			h.Quantile(0.5), h.Quantile(0.99), h.Max(), h.Count, h.Mean())
	}

	// Per-server call split, busiest first.
	type srvRow struct {
		name  string
		calls uint64
	}
	var srvs []srvRow
	for name, v := range d.Counters {
		if rest, ok := strings.CutPrefix(name, "mach.rpc.to."); ok {
			srvs = append(srvs, srvRow{strings.TrimSuffix(rest, ".calls"), v})
		}
	}
	sort.Slice(srvs, func(i, j int) bool {
		if srvs[i].calls != srvs[j].calls {
			return srvs[i].calls > srvs[j].calls
		}
		return srvs[i].name < srvs[j].name
	})
	if len(srvs) > 0 {
		fmt.Printf("\n%-16s %10s %8s\n", "SERVER", "CALLS", "SHARE")
		for _, r := range srvs {
			share := 0.0
			if calls > 0 {
				share = 100 * float64(r.calls) / float64(calls)
			}
			fmt.Printf("%-16s %10d %7.1f%%\n", r.name, r.calls, share)
		}
	}

	// Engines: per-CPU share of the frame's modeled cycles plus dispatch
	// traffic — present only on SMP boots (cpu.engines gauge).
	if n, ok := d.Gauges["cpu.engines"]; ok && n > 0 {
		deltas := make([]int64, n)
		var total int64
		for i := int64(0); i < n; i++ {
			cur := d.Gauges[fmt.Sprintf("cpu.e%d.cycles", i)]
			deltas[i] = cur - prevCyc[int(i)]
			prevCyc[int(i)] = cur
			total += deltas[i]
		}
		fmt.Printf("\n%-8s %14s %8s %6s %10s %10s %8s\n",
			"ENGINE", "CYCLES", "UTIL", "RUNQ", "DISPATCH", "MIGRATE", "STEAL")
		for i := int64(0); i < n; i++ {
			util := 0.0
			if total > 0 {
				util = 100 * float64(deltas[i]) / float64(total)
			}
			fmt.Printf("e%-7d %14d %7.1f%% %6d %10d %10d %8d\n", i, deltas[i], util,
				d.Gauges[fmt.Sprintf("cpu.e%d.runq", i)],
				d.Counters[fmt.Sprintf("cpu.e%d.dispatches", i)],
				d.Counters[fmt.Sprintf("cpu.e%d.migrations", i)],
				d.Counters[fmt.Sprintf("cpu.e%d.steals", i)])
		}
	}

	// Server pools: current occupancy (gauges) and ops this frame.
	var pools []string
	for name := range d.Gauges {
		if rest, ok := strings.CutPrefix(name, "mach.pool."); ok {
			if p, ok := strings.CutSuffix(rest, ".workers"); ok {
				pools = append(pools, p)
			}
		}
	}
	sort.Strings(pools)
	if len(pools) > 0 {
		fmt.Printf("\n%-24s %8s %8s %10s\n", "POOL", "BUSY", "WORKERS", "OPS")
		for _, p := range pools {
			fmt.Printf("%-24s %8d %8d %10d\n", p,
				d.Gauges["mach.pool."+p+".busy"],
				d.Gauges["mach.pool."+p+".workers"],
				d.Counters["mach.pool."+p+".ops"])
		}
	}

	// Buffer cache: hit ratio plus the dirty-sector level, keyed on the
	// bcache.dirty gauge the cache pre-registers at construction.
	if dirty, ok := d.Gauges["bcache.dirty"]; ok {
		hits, misses := d.Counters["bcache.hits"], d.Counters["bcache.misses"]
		ratio := 0.0
		if hits+misses > 0 {
			ratio = 100 * float64(hits) / float64(hits+misses)
		}
		fmt.Printf("\n%-8s %8d hits %8d misses  %5.1f%% hit  ra=%d wb=%d  bcache_dirty=%d\n",
			"bcache", hits, misses, ratio,
			d.Counters["bcache.readahead"], d.Counters["bcache.writeback"], dirty)
	}

	// Subsystem one-liners, only when the frame touched them.
	sub := []struct{ label, a, b string }{
		{"vfs", "vfs.ops.read", "vfs.ops.write"},
		{"pager", "pager.pageins", "pager.pageouts"},
		{"netsvc", "netsvc.sent", "netsvc.delivered"},
		{"ksync", "ksync.kernel_ops", "ksync.user_ops"},
	}
	fmt.Println()
	for _, r := range sub {
		if d.Counters[r.a]+d.Counters[r.b] > 0 {
			fmt.Printf("%-8s %s=%d %s=%d\n", r.label, r.a, d.Counters[r.a], r.b, d.Counters[r.b])
		}
	}
}
