//go:build race

package server

// raceEnabled says the race detector is on. It makes sync.Pool drop a share
// of what it is handed, so an allocation count that relies on a pooled
// buffer's reuse means nothing under it.
const raceEnabled = true
