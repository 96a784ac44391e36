package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A minimal Prometheus text-format (0.0.4 / OpenMetrics-adjacent)
// reader — the consumer side of WritePrometheus, used by adcnn-top to
// scrape the daemons' /metrics without third-party dependencies. It
// understands what this repo emits — HELP/TYPE comments, optional
// {label="value"} sets, and a float value — and tolerates what other
// exporters append after the value: a timestamp, an OpenMetrics
// exemplar (`# {trace_id="..."} 0.5`), or other trailing tokens are
// ignored rather than rejected, so the console keeps working as metric
// families gain labels or the scrape target changes emitter.

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string // nil when the line has no label set
	Value  float64
}

// PromScrape indexes one scrape's samples for lookup by name and label.
type PromScrape struct {
	Samples []PromSample
	byName  map[string][]int
}

// ParsePrometheus reads text exposition into an indexed scrape.
// Malformed lines abort with an error naming the line.
func ParsePrometheus(r io.Reader) (*PromScrape, error) {
	s := &PromScrape{byName: make(map[string][]int)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sample, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: prometheus line %d: %w", lineNo, err)
		}
		s.byName[sample.Name] = append(s.byName[sample.Name], len(s.Samples))
		s.Samples = append(s.Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

func parsePromLine(line string) (PromSample, error) {
	var sample PromSample
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		sample.Name = line[:i]
		// The label set ends at the first '}' outside a quoted value: an
		// exemplar after the value carries its own braces, and a label
		// value may contain a literal '}', so neither the first nor the
		// last byte match is right without tracking quotes.
		j := promLabelSetEnd(line, i)
		if j < 0 {
			return sample, fmt.Errorf("unterminated label set")
		}
		labels, err := parsePromLabels(line[i+1 : j])
		if err != nil {
			return sample, err
		}
		sample.Labels = labels
		rest = strings.TrimSpace(line[j+1:])
	} else {
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			return sample, fmt.Errorf("want 'name value', got %q", line)
		}
		sample.Name = line[:sp]
		rest = strings.TrimSpace(line[sp+1:])
	}
	// Everything after the value — a timestamp, an OpenMetrics exemplar
	// ("# {...} v"), or tokens from a future format revision — is
	// tolerated and ignored: only the first field is the value.
	if h := strings.Index(rest, " #"); h >= 0 {
		rest = strings.TrimSpace(rest[:h])
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return sample, fmt.Errorf("missing value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return sample, fmt.Errorf("bad value %q", fields[0])
	}
	sample.Value = v
	return sample, nil
}

// promLabelSetEnd returns the index of the '}' closing the label set
// opened at open, skipping quoted values (with backslash escapes), or
// -1 when the set never closes.
func promLabelSetEnd(line string, open int) int {
	inQuote := false
	for i := open + 1; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

func parsePromLabels(s string) (map[string]string, error) {
	out := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label pair in %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		// Scan the quoted value honouring \" escapes.
		i := eq + 2
		var b strings.Builder
		for i < len(s) {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '"':
					b.WriteByte('"')
				case '\\':
					b.WriteByte('\\')
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(c)
					b.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
			i++
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		out[name] = b.String()
		s = strings.TrimPrefix(strings.TrimSpace(s[i+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// Value returns the first sample of name whose labels include every
// given key=value pair (extra labels on the sample are ignored).
func (s *PromScrape) Value(name string, labels ...string) (float64, bool) {
	if s == nil || len(labels)%2 != 0 {
		return 0, false
	}
	for _, i := range s.byName[name] {
		sample := s.Samples[i]
		ok := true
		for j := 0; j+1 < len(labels); j += 2 {
			if sample.Labels[labels[j]] != labels[j+1] {
				ok = false
				break
			}
		}
		if ok {
			return sample.Value, true
		}
	}
	return 0, false
}

// LabelValues returns the sorted distinct values label takes across
// name's samples.
func (s *PromScrape) LabelValues(name, label string) []string {
	if s == nil {
		return nil
	}
	seen := map[string]bool{}
	for _, i := range s.byName[name] {
		if v, ok := s.Samples[i].Labels[label]; ok && !seen[v] {
			seen[v] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Buckets reassembles a histogram family's cumulative buckets for the
// sample set matching the given label pairs: the finite upper bounds
// (sorted) and their cumulative counts, with the +Inf bucket last.
// Series that share an upper bound are summed, so a family split by a
// label the pairs leave open (e.g. replica) reads as one histogram.
func (s *PromScrape) Buckets(name string, labels ...string) (upper []float64, cum []uint64) {
	if s == nil || len(labels)%2 != 0 {
		return nil, nil
	}
	finite := map[float64]uint64{}
	var infCum uint64
	haveInf := false
	for _, i := range s.byName[name+"_bucket"] {
		sample := s.Samples[i]
		ok := true
		for j := 0; j+1 < len(labels); j += 2 {
			if sample.Labels[labels[j]] != labels[j+1] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		le := sample.Labels["le"]
		if le == "+Inf" {
			infCum += uint64(sample.Value)
			haveInf = true
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		finite[b] += uint64(sample.Value)
	}
	if !haveInf {
		return nil, nil
	}
	for b := range finite {
		upper = append(upper, b)
	}
	sort.Float64s(upper)
	for _, b := range upper {
		cum = append(cum, finite[b])
	}
	return upper, append(cum, infCum)
}

// QuantileFromBuckets estimates the q-quantile from cumulative bucket
// counts (finite upper bounds plus a trailing +Inf count), e.g. the
// delta between two /metrics scrapes. Interpolation matches
// HistogramSnapshot.Quantile with min/max unknown: the first bucket
// interpolates from 0, the overflow bucket reports the last finite
// bound. Returns NaN when the histogram is empty.
func QuantileFromBuckets(upper []float64, cum []uint64, q float64) float64 {
	if len(cum) == 0 || len(cum) != len(upper)+1 || cum[len(cum)-1] == 0 {
		return math.NaN()
	}
	total := cum[len(cum)-1]
	rank := q * float64(total)
	var prev uint64
	for i, c := range cum {
		if float64(c) >= rank && c > prev {
			lo := 0.0
			if i > 0 {
				lo = upper[i-1]
			}
			if i >= len(upper) {
				return lo // overflow bucket: clamp to the last finite bound
			}
			hi := upper[i]
			frac := (rank - float64(prev)) / float64(c-prev)
			return lo + (hi-lo)*frac
		}
		prev = c
	}
	if len(upper) > 0 {
		return upper[len(upper)-1]
	}
	return math.NaN()
}

// FractionAboveFromBuckets estimates the fraction of observations above
// v from cumulative bucket counts, by the interpolation
// QuantileFromBuckets uses (the first bucket spans from 0, the overflow
// bucket sits at the last finite bound), so the two agree:
// FractionAboveFromBuckets(QuantileFromBuckets(q)) = 1−q. Returns 0
// when the histogram is empty.
func FractionAboveFromBuckets(upper []float64, cum []uint64, v float64) float64 {
	if len(cum) == 0 || len(cum) != len(upper)+1 || cum[len(cum)-1] == 0 {
		return 0
	}
	total := float64(cum[len(cum)-1])
	lo, below := 0.0, 0.0
	for i, hi := range upper {
		c := float64(cum[i])
		if v < hi {
			if v > lo {
				below += (c - below) * (v - lo) / (hi - lo)
			}
			return 1 - below/total
		}
		lo, below = hi, c
	}
	return 0
}

// DeltaBuckets subtracts an earlier scrape's cumulative counts from a
// later one's, for windowed quantiles between two polls. Mismatched
// layouts return nil.
func DeltaBuckets(cur, prev []uint64) []uint64 {
	if len(cur) != len(prev) {
		return nil
	}
	out := make([]uint64, len(cur))
	for i := range cur {
		if cur[i] < prev[i] {
			return nil // counter reset (process restart)
		}
		out[i] = cur[i] - prev[i]
	}
	return out
}
