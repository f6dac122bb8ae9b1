// Package cli is the plumbing the command-line tools share: the boot
// flags and the core.Config they name, the -workload table, the monitor
// connection of the observation clients, and the error exits.  Every
// command that boots a configurable system takes the same boot flags with
// the same names, defaults and meanings.
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/workload"
)

// workloads maps the -workload names to the Table 1 rows they run.
var workloads = map[string]workload.Row{
	"file1":    workload.FileIntensive1,
	"file2":    workload.FileIntensive2,
	"gfx-low":  workload.GraphicsLow,
	"gfx-med":  workload.GraphicsMedium,
	"gfx-high": workload.GraphicsHigh,
	"pm-med":   workload.PMTaskingMedium,
	"pm-high":  workload.PMTaskingHigh,
}

// WorkloadNames lists the workloads keys for flag help.
const WorkloadNames = "file1, file2, gfx-low, gfx-med, gfx-high, pm-med, pm-high"

// Row returns the named workload, or reports a usage error and exits.
func Row(name string) workload.Row {
	row, ok := workloads[name]
	if !ok {
		Usagef("unknown workload %q", name)
	}
	return row
}

// Boot holds the boot flags.
type Boot struct {
	driver                  *string
	mem, pool, cache, cpus  *int
	simple, zerocopy, batch *bool
}

// BootFlags registers the boot flags on the command line.  Call it
// before flag.Parse.
func BootFlags() *Boot {
	return &Boot{
		driver:   flag.String("driver", "user", "block driver model: user, kernel, ooddm"),
		mem:      flag.Int("mem", 64, "installed memory in MB"),
		simple:   flag.Bool("simple-names", false, "also start the Release 2 simplified name service"),
		pool:     flag.Int("pool", 1, "server threads per RPC server (Release 2 multi-threaded servers when > 1)"),
		cache:    flag.Int("cache", 0, "file-server buffer cache size in sectors (0 = off, the seed path)"),
		cpus:     flag.Int("cpus", 1, "number of processing engines (SMP complex when > 1)"),
		zerocopy: flag.Bool("zerocopy", false, "move page-sized file payloads by out-of-line region descriptor (zero per-byte copy)"),
		batch:    flag.Bool("batch", false, "vector hot-path RPC batches (readdir+stat, write-behind flush) into single crossings"),
	}
}

// System boots the system the flags configure, or exits on failure.
func (b *Boot) System() *core.System {
	cfg := core.DefaultConfig()
	cfg.MemoryMB = *b.mem
	cfg.CPUs = *b.cpus
	cfg.SimpleNames = *b.simple
	cfg.ServerPool = *b.pool
	cfg.CacheSectors = *b.cache
	cfg.ZeroCopy = *b.zerocopy
	cfg.BatchRPC = *b.batch
	switch *b.driver {
	case "kernel":
		cfg.Driver = core.DriverKernel
	case "ooddm":
		cfg.Driver = core.DriverOODDM
	default:
		cfg.Driver = core.DriverUser
	}
	s, err := core.Boot(cfg)
	Check(err)
	return s
}

// Monitor finds the monitor server through the name service and connects
// a new task of that name to it over RPC: the observation plane is
// queried through the same shared-service plumbing it observes.
func Monitor(s *core.System, task string) *monitor.Client {
	b, err := s.Names.Lookup("/servers/monitor")
	Check(err)
	th, err := s.Kernel.NewTask(task).NewBoundThread("main")
	Check(err)
	c, err := monitor.Connect(th, b.Task, b.Port)
	Check(err)
	return c
}

// Check exits with status 1 when err is not nil.
func Check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog(), err)
		os.Exit(1)
	}
}

// Usagef reports a usage error, prints the flag usage and exits with
// status 2.
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog(), fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

// prog is the command's name, for message prefixes.
func prog() string { return filepath.Base(os.Args[0]) }
