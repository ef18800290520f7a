package experiments

import (
	"fmt"
	"sort"
	"strings"
)

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
