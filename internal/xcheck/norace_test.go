//go:build !race

package xcheck

const raceEnabled = false
