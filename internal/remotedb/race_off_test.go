//go:build !race

package remotedb

const raceEnabled = false
