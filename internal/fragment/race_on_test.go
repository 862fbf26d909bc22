//go:build race

package fragment_test

const raceEnabled = true
