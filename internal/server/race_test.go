//go:build race

package server

// raceEnabled is set under the race detector, where sync.Pool drops
// items at random and pooled encodings allocate.
const raceEnabled = true
