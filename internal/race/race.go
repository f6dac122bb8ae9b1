//go:build race

// Package race reports whether the race detector is compiled in, so
// allocation budgets — which the detector's instrumentation inflates —
// can skip themselves under `go test -race`.
package race

// Enabled is true in race-detector builds.
const Enabled = true
