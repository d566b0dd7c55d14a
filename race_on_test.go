//go:build race

package braid

// raceEnabled reports whether the race detector instruments this test binary.
// Allocation budgets are skipped under it: the instrumented runtime allocates
// on paths that otherwise allocate nothing.
const raceEnabled = true
