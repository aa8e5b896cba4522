//go:build !race

package alloctest

// RaceEnabled reports whether the binary was built with -race. Byte budgets
// are meaningless under the race detector (it pads allocations), and tests
// too large for its constant-factor slowdown skip themselves; check.sh
// re-runs both kinds without -race.
const RaceEnabled = false
