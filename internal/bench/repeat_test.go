package bench

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/kprof"
	"repro/internal/ktrace"
	"repro/internal/workload"
)

// TestSerialObservationRepeatable runs serial File Intensive 1 three
// times under kprof and three times under ktrace and requires the same
// folded profile and the same per-subsystem summary every time.  A
// serial run models the same cycles on every run, so its attribution
// must not move either.  It did when the server loop closed its serve:
// span and frames after the reply had already woken the client: the
// client's trap exit and reschedule then landed inside the server's
// window or outside it depending on which goroutine the host ran first.
func TestSerialObservationRepeatable(t *testing.T) {
	run := func(observe func(*core.System) func() []byte) []byte {
		s, err := core.Boot(core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		out := observe(s)
		if _, err := workload.Run(workload.FileIntensive1, s.WorkloadEnv()); err != nil {
			t.Fatal(err)
		}
		return out()
	}
	folded := func(s *core.System) func() []byte {
		p := kprof.Attach(s.Kernel.CPU)
		p.Enable()
		return func() []byte {
			p.Disable()
			var b bytes.Buffer
			if err := p.Snapshot().WriteFolded(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
	}
	summary := func(s *core.System) func() []byte {
		tr := ktrace.Attach(s.Kernel.CPU)
		return func() []byte {
			var b bytes.Buffer
			if err := ktrace.WriteSummary(&b, tr); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
	}
	for _, c := range []struct {
		name    string
		observe func(*core.System) func() []byte
	}{{"kprof-folded", folded}, {"ktrace-summary", summary}} {
		first := run(c.observe)
		for i := 2; i <= 3; i++ {
			if got := run(c.observe); !bytes.Equal(got, first) {
				t.Errorf("%s: run %d differs from run 1 (%d vs %d bytes)", c.name, i, len(got), len(first))
			}
		}
	}
}
