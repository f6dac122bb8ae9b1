package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/klat"
	"repro/internal/workload"
)

// TestLedgerGolden pins the tail-latency ledger of three serial
// single-engine runs byte for byte: every family, count and histogram
// bucket, and every exemplar hop tree with its marks and notes.  The
// dumps in testdata were written by the goroutine-bound ledger the
// explicit request context replaced; reproducing them exactly proves
// the context reaches every nested call and every named wait the old
// binding did — the driver hops under FI1's file operations, the
// registry and PM traffic of the PM run, and the buffer cache's lock
// marks, hit/miss notes and vectored write-behind sub-hops in the
// cached run.  A serial run is a pure function of the boot, so any
// difference is an attribution change.
func TestLedgerGolden(t *testing.T) {
	cached := core.DefaultConfig()
	cached.CacheSectors = 64
	cached.ZeroCopy = true
	cached.BatchRPC = true
	for _, c := range []struct {
		name   string
		row    workload.Row
		cfg    core.Config
		golden string
	}{
		{"fi1", workload.FileIntensive1, core.DefaultConfig(), "testdata/klat_fi1.json"},
		{"pm", workload.PMTaskingMedium, core.DefaultConfig(), "testdata/klat_pm.json"},
		{"fi1-cached", workload.FileIntensive1, cached, "testdata/klat_fi1_cached.json"},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.Boot(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := workload.Run(c.row, s.WorkloadEnv()); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := klat.For(s.Kernel.CPU).Dump().WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(got.Bytes(), want) {
				return
			}
			gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("ledger differs from %s at line %d:\n got: %s\nwant: %s", c.golden, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("ledger differs from %s in length: %d lines, want %d", c.golden, len(gl), len(wl))
		})
	}
}
