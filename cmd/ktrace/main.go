// Command ktrace boots Workplace OS, runs one Table 1 workload with kernel
// event tracing attached, and dumps the trace:
//
//	ktrace -workload file1 -format chrome -o trace.json   # chrome://tracing
//	ktrace -workload file1 -format summary                # per-subsystem cycles
//	ktrace -workload file1 -format tree -trees 3          # causal trees
//	ktrace -workload file1 -format attr                   # E-ATTR gap attribution
//
// Tracing is observation-only: the traced run consumes exactly the cycles
// an untraced run would.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/ktrace"
	"repro/internal/workload"
)

func main() {
	var (
		wl     = flag.String("workload", "file1", "workload: "+cli.WorkloadNames)
		format = flag.String("format", "summary", "output: chrome, summary, tree, attr")
		out    = flag.String("o", "", "output file (default stdout)")
		ring   = flag.Int("ring", ktrace.DefaultRingSize, "trace ring capacity in events")
		trees  = flag.Int("trees", 5, "causal trees to print in tree format")
	)
	flag.Parse()

	row := cli.Row(*wl)

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		cli.Check(err)
		defer f.Close()
		w = f
	}

	if *format == "attr" {
		res, err := bench.Attribution(row)
		cli.Check(err)
		printAttribution(w, res)
		return
	}

	sys, err := core.Boot(core.DefaultConfig())
	cli.Check(err)
	tr := ktrace.AttachSized(sys.Kernel.CPU, *ring)
	res, err := workload.Run(row, sys.WorkloadEnv())
	cli.Check(err)

	switch *format {
	case "chrome":
		// Buffer the per-event stream: a full ring is hundreds of
		// thousands of small writes, but never the whole JSON in memory.
		bw := bufio.NewWriter(w)
		cli.Check(ktrace.WriteChromeTrace(bw, tr.Events()))
		cli.Check(bw.Flush())
	case "summary":
		fmt.Fprintf(w, "%s on %s: %d cycles\n\n", res.Row, res.Env, res.Cycles)
		cli.Check(ktrace.WriteSummary(w, tr))
	case "tree":
		ktrace.WriteTree(w, tr.Events(), *trees)
	default:
		cli.Usagef("unknown format %q", *format)
	}
}

func printAttribution(w io.Writer, res bench.AttributionResult) {
	fmt.Fprintf(w, "E-ATTR: %s\n", res.Row)
	fmt.Fprintf(w, "  WPOS cycles    %12d (traced run: %d, dropped events: %d)\n",
		res.WPOSCycles, res.TracedCycles, res.Dropped)
	fmt.Fprintf(w, "  native cycles  %12d\n", res.NativeCycles)
	fmt.Fprintf(w, "  gap            %12d\n\n", res.Gap)
	fmt.Fprintf(w, "  %-12s %7s %14s %9s\n", "subsystem", "spans", "cycles(excl)", "crossing")
	for _, s := range res.Subsystems {
		mark := ""
		if crossing(s.Subsystem) {
			mark = "yes"
		}
		fmt.Fprintf(w, "  %-12s %7d %14d %9s\n", s.Subsystem, s.Spans, s.Cycles, mark)
	}
	fmt.Fprintf(w, "\n  crossing cycles %d = %.1f%% of the gap\n",
		res.CrossingCycles, 100*res.CrossingShare)
}

// crossing mirrors bench's classification for display.
func crossing(sub string) bool {
	switch sub {
	case "mach.rpc", "mach.ipc", "iosys", "drivers":
		return true
	}
	return false
}
