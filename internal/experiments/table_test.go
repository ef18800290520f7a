package experiments

import (
	"sort"
	"strings"
	"testing"
)

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
