//go:build !race

package minilang

// raceEnabled reports whether the race detector instruments this build;
// allocation-size assertions only hold without its bookkeeping allocs.
const raceEnabled = false
