//go:build race

package xcheck

// raceEnabled is set under -race, where sync.Pool drops items at random
// and allocation counts stop being reproducible.
const raceEnabled = true
