//go:build !race

package core

// raceEnabled says the tests run under the race detector, which drops
// sync.Pool items at random.
const raceEnabled = false
