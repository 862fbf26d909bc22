//go:build race

package xq

const raceEnabled = true
