//go:build race

package nn

// raceEnabled gates allocation-count assertions: under the race detector
// sync.Pool deliberately drops puts, so pooled paths legitimately
// allocate.
const raceEnabled = true
