package cpu_test

import (
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kflight"
	"repro/internal/klat"
	"repro/internal/kprof"
	"repro/internal/kstat"
	"repro/internal/ktrace"
)

// TestPlanesConcurrentAttach drives Attach, Detach and For of all five
// observation planes on one engine from several goroutines while the
// engine charges and switches address spaces (run it under -race), then
// checks each plane's attach semantics: kstat, ktrace and klat replace
// the attached plane, kprof and kflight hand back the one attached, even
// to callers racing to attach first.  It runs on a standalone engine and
// on the router of a two-engine Complex.
func TestPlanesConcurrentAttach(t *testing.T) {
	cfg := cpu.Pentium133()
	for _, eng := range []*cpu.Engine{cpu.NewEngine(cfg), cpu.NewComplex(cfg, 2).Router()} {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					kstat.Attach(eng)
					ktrace.AttachSized(eng, 16)
					kprof.Attach(eng).Enable()
					kflight.AttachSized(eng, 16)
					klat.Attach(eng)
					eng.Instr(10)
					eng.SwitchAddressSpace(uint64(g*1000 + i))
					// A concurrent Detach may have run: For returns the
					// plane or nil.
					_, _, _ = kstat.For(eng), ktrace.For(eng), kprof.For(eng)
					_, _ = kflight.For(eng), klat.For(eng)
					if i%4 == g {
						detachAll(eng)
					}
				}
			}(g)
		}
		wg.Wait()
		detachAll(eng)

		if kstat.For(eng) != nil || ktrace.For(eng) != nil || kprof.For(eng) != nil ||
			kflight.For(eng) != nil || klat.For(eng) != nil {
			t.Fatal("Detach left a plane attached")
		}
		if a, b := kstat.Attach(eng), kstat.Attach(eng); a == b || kstat.For(eng) != b {
			t.Error("kstat.Attach did not replace the attached Set")
		}
		if a, b := ktrace.Attach(eng), ktrace.Attach(eng); a == b || ktrace.For(eng) != b {
			t.Error("ktrace.Attach did not replace the attached Tracer")
		}
		if a, b := klat.Attach(eng), klat.Attach(eng); a == b || klat.For(eng) != b {
			t.Error("klat.Attach did not replace the attached Tracker")
		}

		profs := make([]*kprof.Profiler, 8)
		recs := make([]*kflight.Recorder, 8)
		for i := range profs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				profs[i], recs[i] = kprof.Attach(eng), kflight.Attach(eng)
			}(i)
		}
		wg.Wait()
		for i := range profs {
			if profs[i] != kprof.For(eng) || recs[i] != kflight.For(eng) {
				t.Fatalf("racing attach %d got a plane other than the one attached", i)
			}
		}
		detachAll(eng)
	}
}

func detachAll(eng *cpu.Engine) {
	kstat.Detach(eng)
	ktrace.Detach(eng)
	kprof.Detach(eng)
	kflight.Detach(eng)
	klat.Detach(eng)
}
