//go:build !race

package ie

const raceEnabled = false
