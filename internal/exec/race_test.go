//go:build race

package exec

// A -race build's sync.Pool drops a share of what is put back on purpose.
func init() { raceEnabled = true }
