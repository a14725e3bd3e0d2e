//go:build race

package colmat

// The race detector makes sync.Pool drop a random share of Puts, so a
// pool hit count measured under -race says nothing about the arena.
func init() { raceEnabled = true }
