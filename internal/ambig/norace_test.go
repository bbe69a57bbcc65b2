//go:build !race

package ambig

const raceEnabled = false
