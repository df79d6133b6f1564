//go:build !race

package realtime

const raceEnabled = false
