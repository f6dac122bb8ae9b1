//go:build go1.24

package core

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"repro/internal/cpu"
	"repro/internal/workload"
)

// TestDroppedSystemCollected boots a system (which attaches kstat,
// kflight and klat), runs File Intensive 1, terminates its tasks and
// drops it without detaching anything.  The planes hang off the engine,
// so nothing outside the system may keep the engine reachable: the weak
// pointer must clear.  Package-level plane registries keyed by engine
// kept every booted system alive.
func TestDroppedSystemCollected(t *testing.T) {
	eng := bootAndDrop(t)
	deadline := time.Now().Add(10 * time.Second)
	for eng.Value() != nil {
		if time.Now().After(deadline) {
			t.Fatal("the dropped system's engine is still reachable")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// bootAndDrop runs the system in its own frame, so no local of the test
// keeps it alive, and returns a weak pointer to its engine.
func bootAndDrop(t *testing.T) weak.Pointer[cpu.Engine] {
	s, err := Boot(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Run(workload.FileIntensive1, s.WorkloadEnv()); err != nil {
		t.Fatal(err)
	}
	for _, task := range s.Kernel.Tasks() {
		task.Terminate()
	}
	return weak.Make(s.Kernel.CPU)
}
