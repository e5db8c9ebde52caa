//go:build race

package memdb

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions only hold without its bookkeeping allocs.
const raceEnabled = true
