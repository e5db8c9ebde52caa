//go:build unix

package metrics

import (
	"syscall"
	"time"
)

// totalCPUSeconds reads the user plus system CPU seconds the process has
// consumed so far, from getrusage(RUSAGE_SELF). (The runtime/metrics
// /cpu/classes/* values are estimates the Go runtime advances only at a
// garbage collection, so a region without one read 0 there.) It returns 0
// when the call fails.
func totalCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
