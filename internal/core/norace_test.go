//go:build !race

package core_test

// raceEnabled reports a -race build, which simulates about ten times
// slower.
const raceEnabled = false
