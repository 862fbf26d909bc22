//go:build !race

package xq

// raceEnabled is true under the race detector, whose instrumentation
// allocates on its own: allocation counts mean nothing there.
const raceEnabled = false
