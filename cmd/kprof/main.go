// Command kprof boots Workplace OS, opens a profile window over the
// monitor server (found through the name service, spoken to over the
// system's own RPC), drives a workload inside the window, and renders the
// exact cycle-attribution profile: which code regions the cycles landed
// in and why (base issue, I-cache, D-cache, TLB, switch, stall).
//
// Usage:
//
//	kprof -format regions                 # top regions with stall breakdown
//	kprof -format servers                 # per-server/op stall breakdown
//	kprof -format kinds                   # whole-run stall-kind split
//	kprof -format folded > out.folded     # flamegraph.pl-compatible stacks
//	kprof -format json                    # raw profile
//	kprof -eprof                          # run E-PROF and print the ledger
//
// Boot flags are the shared set of internal/cli: -driver, -mem, -pool,
// -cache, -cpus, -simple-names, -zerocopy, -batch.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/cpu"
	"repro/internal/kprof"
	"repro/internal/workload"
)

func main() {
	var (
		boot   = cli.BootFlags()
		wl     = flag.String("workload", "file1", "traffic source: "+cli.WorkloadNames)
		format = flag.String("format", "regions", "output: regions, servers, kinds, folded, json")
		topN   = flag.Int("top", 20, "rows to show in table formats (0 = all)")
		eprof  = flag.Bool("eprof", false, "run the E-PROF experiment instead of a workload profile")
	)
	flag.Parse()

	if *eprof {
		runEPROF()
		return
	}

	row := cli.Row(*wl)
	s := boot.System()

	// The profile window is driven entirely over the system's own RPC:
	// look the monitor up in the name service, start the window, run the
	// workload, stop, fetch.
	c := cli.Monitor(s, "kprof-cli")
	cli.Check(c.ProfStart())
	res, err := workload.Run(row, s.WorkloadEnv())
	cli.Check(err)
	cli.Check(c.ProfStop())
	prof, err := c.Profile()
	cli.Check(err)

	switch *format {
	case "folded":
		cli.Check(prof.WriteFolded(os.Stdout))
	case "json":
		cli.Check(prof.WriteJSON(os.Stdout))
	case "regions":
		header(prof, res)
		table("REGION", prof.ByRegion(), *topN)
	case "servers":
		header(prof, res)
		table("CONTEXT", prof.ByServer(), *topN)
	case "kinds":
		header(prof, res)
		table("KIND", prof.ByKind(), 0)
	default:
		cli.Usagef("unknown format %q", *format)
	}
}

// header prints the window summary: how much of the workload's modeled
// cost the profile attributed (all of it, by the exactness contract —
// minus only the cycles of the ProfStop control call itself).
func header(p kprof.Profile, res workload.Result) {
	cycles, bus, instr := p.Totals()
	fmt.Printf("kprof — %s: attributed %d cycles (%d bus, %d instr) in %d samples; workload modeled %d cycles\n\n",
		res.Row, cycles, bus, instr, len(p.Samples), res.Cycles)
}

// table renders an aggregated view with a per-kind percentage breakdown.
func table(label string, rows []kprof.Agg, topN int) {
	var total uint64
	for _, r := range rows {
		total += r.Cycles
	}
	fmt.Printf("%-28s %12s %6s  %5s %5s %5s %5s %5s %5s\n",
		label, "CYCLES", "SHARE", "base", "imiss", "dmiss", "tlb", "switch", "stall")
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.Cycles) / float64(total)
		}
		name := r.Name
		if len(name) > 28 {
			name = name[:25] + "..."
		}
		fmt.Printf("%-28s %12d %5.1f%%  ", name, r.Cycles, share)
		var pcts []string
		for kind := cpu.ProfKind(0); kind < cpu.NumProfKinds; kind++ {
			pct := 0.0
			if r.Cycles > 0 {
				pct = 100 * float64(r.ByKind[kind]) / float64(r.Cycles)
			}
			pcts = append(pcts, fmt.Sprintf("%4.0f%%", pct))
		}
		fmt.Println(strings.Join(pcts, " "))
	}
}

// runEPROF prints the E-PROF ledger: the exact decomposition of Table 2's
// trap-vs-RPC cycle gap.
func runEPROF() {
	res, err := bench.EPROF()
	cli.Check(err)
	fmt.Println("E-PROF — exact profile of one thread_self trap vs one 32-byte RPC")
	fmt.Printf("(paper Table 2: trap 970 cycles CPI 2.0, RPC 5163 cycles CPI 3.9, gap blamed on I-cache misses)\n\n")
	fmt.Printf("%-12s %10s %10s %10s   exact\n", "OP", "CYCLES", "INSTR", "BUS")
	for _, op := range []bench.OpProfile{res.Trap, res.RPC} {
		fmt.Printf("%-12s %10d %10d %10d   %v\n", op.Name,
			op.Counters.Cycles, op.Counters.Instructions, op.Counters.BusCycles, op.Exact)
	}
	fmt.Printf("\nRPC - trap gap: %d cycles, by stall kind:\n", res.GapCycles)
	for kind := cpu.ProfKind(0); kind < cpu.NumProfKinds; kind++ {
		share := 0.0
		if res.GapCycles != 0 {
			share = 100 * float64(res.GapByKind[kind]) / float64(res.GapCycles)
		}
		marker := ""
		if kind == res.Largest {
			marker = "  <- largest"
		}
		fmt.Printf("  %-6s %+7d cycles  %5.1f%%%s\n", kind, res.GapByKind[kind], share, marker)
	}
	fmt.Printf("\nI-cache share of the gap: %.1f%% — the paper's attribution, now a number.\n",
		100*res.IMissShare)
}
