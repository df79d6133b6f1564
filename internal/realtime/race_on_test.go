//go:build race

package realtime

const raceEnabled = true
