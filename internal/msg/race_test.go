//go:build race

package msg

// raceEnabled skips the allocation pins: under the race detector
// sync.Pool drops objects at random, so recycled objects are rebuilt.
const raceEnabled = true
