//go:build race

package parallel

// raceEnabled gates allocation-count assertions: under the race detector
// sync.Pool deliberately drops puts, so pooled paths legitimately
// allocate.
const raceEnabled = true
