//go:build race

package wire

// raceEnabled: the race detector makes sync.Pool drop a random share of
// Puts, so pool-reuse assertions do not hold under it.
const raceEnabled = true
