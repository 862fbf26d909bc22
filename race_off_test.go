//go:build !race

package xcql_test

const raceEnabled = false
