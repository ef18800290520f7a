// Package metrics provides the measurement primitives BriskStream's
// evaluation uses: event counters and sampled rates, latency histograms
// with percentiles, empirical CDFs and text tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter safe for
// concurrent use. Sinks use one Counter each; application throughput is
// the sum of sink counter rates.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Reset zeroes the counter (the engine resets per-run counters at the
// start of each Run so one engine can be run repeatedly).
func (c *Counter) Reset() { c.n.Store(0) }

// Histogram collects float64 observations (typically nanoseconds or
// milliseconds) and reports order statistics. It keeps raw samples up to
// a cap and then reservoir-subsamples, which preserves quantile accuracy
// for the long-running latency experiments without unbounded memory.
type Histogram struct {
	mu      sync.Mutex
	samples []float64
	cap     int
	count   uint64
	sum     float64
	min     float64
	max     float64
	rng     uint64 // xorshift state for reservoir sampling

	// sorted caches an ordered copy of samples so repeated quantile reads
	// (a scrape asks for p50/p90/p99 every second) sort once per sample
	// mutation instead of once per call. Invalidated by Observe only when
	// it actually changed the sample set.
	sorted   []float64
	sortedOK bool
}

// NewHistogram creates a histogram retaining at most maxSamples raw
// observations (default 100k if maxSamples <= 0).
func NewHistogram(maxSamples int) *Histogram {
	if maxSamples <= 0 {
		maxSamples = 100_000
	}
	return &Histogram{cap: maxSamples, min: math.Inf(1), max: math.Inf(-1), rng: 0x9E3779B97F4A7C15}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, v)
		h.sortedOK = false
		return
	}
	// Reservoir sampling: replace a random slot with probability cap/count.
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	if idx := h.rng % h.count; idx < uint64(h.cap) {
		h.samples[idx] = v
		h.sortedOK = false
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of all observations (not just the
// retained samples), or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 <= q <= 1) over retained samples
// using linear interpolation, or 0 when empty. The sorted view is
// cached across calls, so asking for several quantiles between
// observations costs one sort total, not one per call.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantileOf(h.sortedLocked(), q)
}

// sortedLocked returns the cached ordered copy of samples, rebuilding
// it only when an Observe changed the sample set since the last build.
// The cache reuses its backing array, so steady-state re-sorts (full
// reservoir) allocate nothing.
func (h *Histogram) sortedLocked() []float64 {
	if !h.sortedOK {
		h.sorted = append(h.sorted[:0], h.samples...)
		sort.Float64s(h.sorted)
		h.sortedOK = true
	}
	return h.sorted
}

// quantileOf interpolates the q-quantile of an already-sorted slice.
func quantileOf(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// CDFPoint is one point of an empirical cumulative distribution.
type CDFPoint struct {
	Value   float64 // observation value
	Percent float64 // cumulative fraction in [0,1]
}

// CDFOf computes an empirical CDF of the given values with at most
// points entries, evenly spaced in cumulative probability (Figure 14's
// random-plan throughput CDF).
func CDFOf(values []float64, points int) []CDFPoint {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 || points <= 0 {
		return nil
	}
	if points > len(s) {
		points = len(s)
	}
	out := make([]CDFPoint, 0, points)
	for k := 1; k <= points; k++ {
		idx := k*len(s)/points - 1
		out = append(out, CDFPoint{Value: s[idx], Percent: float64(k) / float64(points)})
	}
	return out
}

// SampleRate measures an event rate from externally sampled cumulative
// counts — the shape Engine.QueueStats and Engine.Snapshot produce from
// their atomics — where no Counter is available to wrap.
type SampleRate struct {
	start time.Time
	base  uint64
}

// NewSampleRate starts measuring from the given cumulative base count.
func NewSampleRate(base uint64) *SampleRate {
	return &SampleRate{start: time.Now(), base: base}
}

// Rate returns events/second between the base sample and current. A
// current below the base (counter reset, samples from different
// engines) yields 0 rather than a wrapped uint64.
func (s *SampleRate) Rate(current uint64) float64 {
	elapsed := time.Since(s.start).Seconds()
	if elapsed <= 0 || current < s.base {
		return 0
	}
	return float64(current-s.base) / elapsed
}

// Table renders rows of label/value pairs as an aligned text table; the
// experiment harness uses it for paper-style output.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
