package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// detailBounds are the bounds of the workload-specific numbers -compare
// also judges: the 99th percentile, too jittery on a shared box for the
// driver's gate, and ISSUE 12's plan_s and plan_pred_mtps.
var detailBounds = []metric{
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "plan_s", Unit: "s", Better: "lower", Bound: 0.08},
	{Name: "plan_pred_mtps", Unit: "Mevents/s", Better: "higher", Bound: 0.005},
}

type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	within     verdict = "within bound"
	unresolved verdict = "unresolved"
)

// judge compares side B with side A for one metric. Each side is the
// values of that metric over the side's records (one per seed or
// repetition); the sides are compared by their medians. When either
// side's own spread — quartile distance over median from four records
// up, range over median below — exceeds the bound, a difference of the
// size of the bound cannot be told from noise and the verdict is
// unresolved, not "within bound".
func judge(m metric, a, b []float64) (verdict, float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return unresolved, 0
	}
	change := (mb - ma) / ma
	worsening := change
	if m.Better == "higher" {
		worsening = -change
	}
	spread := func(v []float64) float64 {
		if len(v) >= 4 {
			return quartileSpread(v)
		}
		return spreadPct(v) / 100
	}
	switch {
	case max(spread(a), spread(b)) > m.Bound:
		return unresolved, change
	case worsening > m.Bound:
		return worse, change
	case worsening < -m.Bound:
		return better, change
	}
	return within, change
}

// loadRecords reads one side: a record file, or every record under a
// directory (span files are skipped).
func loadRecords(path string) ([]*report, error) {
	var files []string
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		files = []string{path}
	} else if err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".json") && !strings.HasSuffix(p, ".spans.json") {
			files = append(files, p)
		}
		return err
	}); err != nil {
		return nil, err
	}
	var out []*report
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r := &report{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" || r.Def == "" {
			return nil, fmt.Errorf("%s: not a benchmark record", f)
		}
		out = append(out, r)
	}
	return out, nil
}

// compare prints a verdict per (workload, metric) for side B against
// side A and reports whether anything got worse: a metric beyond its
// bound, or more failed operations. Records are grouped by (workload,
// traced) and matched by def; a def that only one side has measured
// different work, and the comparison is refused.
func compare(w io.Writer, pathA, pathB string) (bool, error) {
	sideA, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	sideB, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	type key struct {
		workload string
		traced   bool
	}
	type pair struct{ a, b []*report }
	// byDef[k][def] holds both sides' records of one definition of k.
	byDef := map[key]map[string]*pair{}
	add := func(rs []*report, side func(*pair) *[]*report) {
		for _, r := range rs {
			k := key{r.Workload, r.Traced}
			if byDef[k] == nil {
				byDef[k] = map[string]*pair{}
			}
			if byDef[k][r.Def] == nil {
				byDef[k][r.Def] = &pair{}
			}
			s := side(byDef[k][r.Def])
			*s = append(*s, r)
		}
	}
	add(sideA, func(p *pair) *[]*report { return &p.a })
	add(sideB, func(p *pair) *[]*report { return &p.b })
	groups := map[key]*pair{}
	var order []key
	var refused []string
	for k, defs := range byDef {
		g := &pair{}
		for def, p := range defs {
			if len(p.a) == 0 || len(p.b) == 0 {
				r := append(p.a, p.b...)[0]
				refused = append(refused, fmt.Sprintf("%s (seed %d, def %s)", k.workload, r.Seed, def))
				continue
			}
			g.a, g.b = append(g.a, p.a...), append(g.b, p.b...)
		}
		groups[k] = g
		order = append(order, k)
	}
	if len(refused) > 0 {
		slices.Sort(refused)
		return false, fmt.Errorf("def mismatch, different work was measured: one side only has %s", strings.Join(refused, ", "))
	}
	if len(order) == 0 {
		return false, fmt.Errorf("no records to compare")
	}
	slices.SortFunc(order, func(x, y key) int {
		if c := strings.Compare(x.workload, y.workload); c != 0 {
			return c
		}
		return int(b2u(x.traced)) - int(b2u(y.traced))
	})

	anyWorse := false
	fmt.Fprintf(w, "%-16s %-30s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "change", "bound", "verdict")
	for _, k := range order {
		g := groups[k]
		// values collects a metric from the records that have it, from
		// their metrics or their detail.
		values := func(rs []*report, name string) []float64 {
			var out []float64
			for _, r := range rs {
				if v, ok := r.Metrics[name]; ok {
					out = append(out, v.Value)
				} else if v, ok := r.Detail[name]; ok {
					out = append(out, v.Value)
				}
			}
			return out
		}
		row := func(m metric) {
			a, b := values(g.a, m.Name), values(g.b, m.Name)
			if len(a) == 0 || len(b) == 0 {
				return
			}
			if m.Bound == 0 { // a layer number: shown, not judged
				fmt.Fprintf(w, "%-16s %-30s %14.6g %14.6g %+7.1f%% %6s\n", k.workload, m.Name,
					median(a), median(b), (median(b)/median(a)-1)*100, "")
				return
			}
			v, change := judge(m, a, b)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-16s %-30s %14.6g %14.6g %+7.1f%% %5.1f%%  %s\n", k.workload, m.Name,
				median(a), median(b), change*100, m.Bound*100, v)
		}
		tables := [][]metric{endToEnd, detailBounds}
		if k.traced {
			tables = [][]metric{perLayer}
		}
		for _, tbl := range tables {
			for _, m := range tbl {
				row(m)
			}
		}
		var failedA, failedB int
		digestOf := map[string]string{} // def -> digest on side A
		for _, r := range g.a {
			failedA += r.OpsFailed
			digestOf[r.Def] = r.Digest
		}
		digests := true
		for _, r := range g.b {
			failedB += r.OpsFailed
			digests = digests && digestOf[r.Def] == r.Digest
		}
		if failedB > failedA {
			anyWorse = true
			fmt.Fprintf(w, "%-16s ops_failed rose from %d to %d\n", k.workload, failedA, failedB)
		}
		if !digests {
			fmt.Fprintf(w, "%-16s digest changed: the same input now gives different output\n", k.workload)
		}
	}
	return anyWorse, nil
}
