//go:build race

package ambig

// raceEnabled trims the verdict golden to the corpus grammars under
// the race detector, where the mutant walks would take minutes.
const raceEnabled = true
