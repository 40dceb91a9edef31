//go:build race

package cluster

// raceEnabled: the race detector makes sync.Pool drop a random share of
// Puts, so allocation bounds that rely on pooled buffers do not hold under
// it.
const raceEnabled = true
