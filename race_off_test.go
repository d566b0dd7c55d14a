//go:build !race

package braid

const raceEnabled = false
