// Command klat boots Workplace OS, drives a workload, fetches the
// tail-latency dump over the monitor server (found through the name
// service, spoken to over the system's own RPC), and renders it: the
// per-(server, op) latency histograms with their queue/service/cross
// decompositions, then hop-by-hop waterfalls of the slowest retained
// exemplars — who the p99 request waited on, hop by hop.
//
// It also works offline on saved dumps:
//
//	klat                                  # boot, run file1, histograms + waterfalls
//	klat -cpus 4 -pool 4 -cache 64        # a contended cell
//	klat -top 3                           # three exemplar waterfalls per family
//	klat -format json > tail.json         # raw dump
//	klat -read tail.json                  # render a saved dump
//
// Boot flags are the shared set of internal/cli: -driver, -mem, -pool,
// -cache, -cpus, -simple-names, -zerocopy, -batch.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/klat"
	"repro/internal/workload"
)

func main() {
	var (
		boot   = cli.BootFlags()
		wl     = flag.String("workload", "file1", "traffic source: "+cli.WorkloadNames)
		top    = flag.Int("top", 1, "exemplar waterfalls to show per (server, op) family")
		format = flag.String("format", "text", "output: text, json")
		read   = flag.String("read", "", "render a saved dump file instead of booting")
	)
	flag.Parse()

	if *read != "" {
		f, err := os.Open(*read)
		cli.Check(err)
		d, err := klat.ReadDump(f)
		f.Close()
		cli.Check(err)
		render(d, *format, *top)
		return
	}

	row := cli.Row(*wl)
	s := boot.System()
	_, err := workload.Run(row, s.WorkloadEnv())
	cli.Check(err)

	// The dump travels the same path a live operator query would:
	// name-service lookup, monitor RPC, JSON in the reply's out-of-line
	// region.
	d, err := cli.Monitor(s, "klat-cli").TailDump()
	cli.Check(err)
	render(d, *format, *top)
}

func render(d *klat.Dump, format string, top int) {
	switch format {
	case "json":
		cli.Check(d.WriteJSON(os.Stdout))
	case "text":
		cli.Check(d.WriteText(os.Stdout))
		for i := range d.Families {
			f := &d.Families[i]
			for j := 0; j < len(f.Exemplars) && j < top; j++ {
				fmt.Println()
				f.Exemplars[j].WriteExemplar(os.Stdout)
			}
		}
	default:
		cli.Usagef("unknown format %q", format)
	}
}
