package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	c.Add(5)
	if c.Value() != 8005 {
		t.Fatalf("counter = %d, want 8005", c.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("Mean = %v, want 50.5", got)
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", got)
	}
	if got := h.Quantile(0.99); got < 99 || got > 100 {
		t.Errorf("p99 = %v, want in [99,100]", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want 100", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(10)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramReservoirBounded(t *testing.T) {
	h := NewHistogram(100)
	for i := 0; i < 10_000; i++ {
		h.Observe(rand.Float64() * 1000)
	}
	if len(h.samples) != 100 {
		t.Fatalf("retained %d samples, want 100", len(h.samples))
	}
	if h.Count() != 10_000 {
		t.Fatalf("count = %d", h.Count())
	}
	// Quantiles over the reservoir should still roughly track the
	// uniform distribution.
	med := h.Quantile(0.5)
	if med < 300 || med > 700 {
		t.Errorf("reservoir median %v too far from 500", med)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(len(raw) + 1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			h.Observe(v)
		}
		qa, qb := math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		lo, hi := math.Min(qa, qb), math.Max(qa, qb)
		return h.Quantile(lo) <= h.Quantile(hi) &&
			h.Quantile(0) == h.Min() && h.Quantile(1) == h.Max()
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	cdf := CDFOf(vals, 5)
	if len(cdf) != 5 {
		t.Fatalf("len = %d", len(cdf))
	}
	if cdf[0].Value != 1 || cdf[0].Percent != 0.2 {
		t.Errorf("first point = %+v", cdf[0])
	}
	if cdf[4].Value != 5 || cdf[4].Percent != 1 {
		t.Errorf("last point = %+v", cdf[4])
	}
	if !sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].Value < cdf[j].Value }) {
		t.Error("CDF values not sorted")
	}
	// Fewer points than values: still ends at max with percent 1.
	c2 := CDFOf(vals, 2)
	if len(c2) != 2 || c2[1].Value != 5 || c2[1].Percent != 1 {
		t.Errorf("coarse CDF = %+v", c2)
	}
	// More points than values clamps.
	c3 := CDFOf([]float64{1}, 10)
	if len(c3) != 1 {
		t.Errorf("clamped CDF len = %d", len(c3))
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"app", "value"}, [][]string{{"WC", "96390.8"}, {"FD", "7172.5"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "app") || !strings.Contains(lines[2], "WC") {
		t.Errorf("table layout wrong:\n%s", out)
	}
}

func TestSampleRate(t *testing.T) {
	sr := NewSampleRate(500)
	time.Sleep(time.Millisecond)
	r := sr.Rate(1500)
	if r <= 0 {
		t.Error("rate should be positive after the sample grew")
	}
	if sr.Rate(500) != 0 {
		t.Error("unchanged sample should give zero rate")
	}
}

func TestQuantileCacheStaysCorrect(t *testing.T) {
	h := NewHistogram(8) // tiny reservoir so replacement paths run
	for i := 1; i <= 8; i++ {
		h.Observe(float64(i))
	}
	if got := h.Quantile(1); got != 8 {
		t.Fatalf("max quantile = %v, want 8", got)
	}
	// Repeated reads between observations must agree (served from cache).
	if a, b := h.Quantile(0.5), h.Quantile(0.5); a != b {
		t.Fatalf("cached quantile drifted: %v vs %v", a, b)
	}
	// Keep observing past the cap; reservoir replacement must invalidate
	// the cache so new extremes become visible.
	for i := 0; i < 10_000; i++ {
		h.Observe(1e9)
	}
	if got := h.Quantile(1); got != 1e9 {
		t.Fatalf("after reservoir churn max quantile = %v, want 1e9", got)
	}
	if got := h.Quantile(0); got < 1 {
		t.Fatalf("min quantile = %v, want >= 1", got)
	}
}

func TestQuantileCacheConcurrent(t *testing.T) {
	h := NewHistogram(1000)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(float64(i % 997))
				if i%64 == 0 {
					_ = h.Quantile(0.99)
				}
			}
		}()
	}
	wg.Wait()
	if q := h.Quantile(0.99); q <= 0 || q > 996 {
		t.Fatalf("p99 = %v out of range", q)
	}
}
