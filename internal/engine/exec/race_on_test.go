//go:build race

package exec

// raceEnabled reports whether the race detector is active; alloc-count gates
// are skipped under -race because instrumentation changes allocation counts.
const raceEnabled = true
