// Command kflight boots Workplace OS, drives a workload, fetches a
// postmortem flight dump over the monitor server (found through the name
// service, spoken to over the system's own RPC), and renders it: the
// last-K events per engine, the wait-for graph with any deadlock cycles
// named, scheduler state and the outstanding-work gauges.
//
// It also works offline on dump files written by the chaos harness or the
// stall watchdog:
//
//	kflight                               # boot, run file1, dump as text
//	kflight -format json > dump.json      # same, raw dump
//	kflight -read dump.json               # render a saved dump
//	kflight -diff a.json b.json           # what changed between two dumps
//
// Boot flags are the shared set of internal/cli: -driver, -mem, -pool,
// -cache, -cpus, -simple-names, -zerocopy, -batch.
package main

import (
	"flag"
	"os"

	"repro/internal/cli"
	"repro/internal/kflight"
	"repro/internal/workload"
)

func main() {
	var (
		boot   = cli.BootFlags()
		wl     = flag.String("workload", "file1", "traffic source: "+cli.WorkloadNames)
		format = flag.String("format", "text", "output: text, json")
		read   = flag.String("read", "", "render a saved dump file instead of booting")
		diff   = flag.Bool("diff", false, "diff two saved dump files (args: a.json b.json)")
	)
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			cli.Usagef("-diff needs exactly two dump files")
		}
		a, err := readFile(flag.Arg(0))
		cli.Check(err)
		b, err := readFile(flag.Arg(1))
		cli.Check(err)
		kflight.Diff(os.Stdout, a, b)
		return
	}
	if *read != "" {
		d, err := readFile(*read)
		cli.Check(err)
		render(d, *format)
		return
	}

	row := cli.Row(*wl)
	s := boot.System()
	_, err := workload.Run(row, s.WorkloadEnv())
	cli.Check(err)

	// The dump travels the same path a postmortem would: name-service
	// lookup, monitor RPC, JSON in the reply's out-of-line region.
	d, err := cli.Monitor(s, "kflight-cli").FlightDump()
	cli.Check(err)
	render(d, *format)
}

func render(d *kflight.Dump, format string) {
	switch format {
	case "json":
		cli.Check(d.WriteJSON(os.Stdout))
	case "text":
		cli.Check(d.WriteText(os.Stdout))
	default:
		cli.Usagef("unknown format %q", format)
	}
}

func readFile(path string) (*kflight.Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kflight.ReadDump(f)
}
