//go:build unix

package metrics

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// A region without a garbage collection must still show its CPU time: a
// single goroutine spinning for 100 ms uses at least half a CPU of the
// GOMAXPROCS capacity the profile divides by.
func TestProfilerCPUWithoutGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := StartProfile("test", "spin")
	x := 0
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
		x++
	}
	prof := p.Stop()
	if want := 50 / float64(runtime.GOMAXPROCS(0)); prof.CPUUtil < want {
		t.Errorf("CPUUtil = %.2f after a 100 ms spin (%d iterations), want >= %.2f", prof.CPUUtil, x, want)
	}
}
