//go:build !unix

package metrics

// totalCPUSeconds reads 0 where getrusage does not exist, so the cpu metric
// reads 0 there.
func totalCPUSeconds() float64 { return 0 }
