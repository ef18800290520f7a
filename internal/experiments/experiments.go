// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6). Each experiment is a function returning a
// Report whose rows mirror the rows/series of the corresponding paper
// artifact; cmd/briskbench prints them and bench_test.go wraps them as
// benchmarks. A shared Context caches RLAS optimization results so the
// expensive plans are computed once per process.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"briskstream/internal/apps"
	"briskstream/internal/bnb"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/rlas"
	"briskstream/internal/sim"
)

// Report is one regenerated paper artifact.
type Report struct {
	// ID is the experiment identifier, e.g. "table4" or "fig9a".
	ID string
	// Title describes the artifact as the paper captions it.
	Title string
	// Header and Rows form the table/series data.
	Header []string
	Rows   [][]string
	// Notes records caveats (substitutions, scale differences).
	Notes string
}

// String renders the report as aligned text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s\n", r.ID, r.Title)
	b.WriteString(Table(r.Header, r.Rows))
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	return b.String()
}

// Context carries tuning knobs and caches shared across experiments.
type Context struct {
	// Quick reduces fidelity (fewer optimizer iterations, shorter
	// simulations) so the full suite runs in CI time. Reports keep their
	// shape; absolute numbers move slightly.
	Quick bool

	mu    sync.Mutex
	plans map[string]*rlas.Result
}

// NewContext returns an empty context.
func NewContext() *Context { return &Context{plans: map[string]*rlas.Result{}} }

// optCfg returns the RLAS configuration for the context's fidelity.
func (c *Context) optCfg(a *apps.App, m *numa.Machine, policy model.TfPolicy) rlas.Config {
	seed, _ := rlas.SeedReplication(a.Graph, a.Stats, m.TotalCores(), 0.7)
	cfg := rlas.Config{
		Model:    &model.Config{Machine: m, Stats: a.Stats, Ingress: model.Saturated, Policy: policy},
		Compress: 5,
		BnB:      bnb.Config{NodeLimit: 1500},
		Initial:  seed,
	}
	if c.Quick {
		cfg.BnB.NodeLimit = 400
		cfg.MaxIterations = 8
	} else {
		cfg.MaxIterations = 40
	}
	return cfg
}

// Optimized returns the cached RLAS plan of app a on machine m under the
// given Tf policy.
func (c *Context) Optimized(a *apps.App, m *numa.Machine, policy model.TfPolicy) (*rlas.Result, error) {
	key := fmt.Sprintf("%s|%s|%d|%d|%v", a.Name, m.Name, m.Sockets, m.CoresPerSocket, policy)
	c.mu.Lock()
	if r, ok := c.plans[key]; ok {
		c.mu.Unlock()
		return r, nil
	}
	c.mu.Unlock()
	cfg := c.optCfg(a, m, policy)
	r, err := rlas.Optimize(a.Graph, cfg)
	if err == bnb.ErrNoFeasiblePlacement {
		// The machine cannot host the saturated application (a spout
		// running at capacity already exceeds the core budget on small
		// machines). Back off the offered ingress toward the analytic
		// Imax, emulating the back-pressure stabilized operating point.
		for _, fill := range []float64{0.9, 0.75, 0.6, 0.45, 0.3} {
			imax, ierr := rlas.EstimateMaxIngress(a.Graph, a.Stats, m.TotalCores(), fill)
			if ierr != nil {
				return nil, ierr
			}
			cfg := c.optCfg(a, m, policy)
			cfg.Model.Ingress = imax
			r, err = rlas.Optimize(a.Graph, cfg)
			if err == nil {
				break
			}
			if err != bnb.ErrNoFeasiblePlacement {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, m.Name, err)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", a.Name, m.Name, err)
	}
	c.mu.Lock()
	c.plans[key] = r
	c.mu.Unlock()
	return r, nil
}

// simCfg returns the simulator configuration for the context fidelity.
func (c *Context) simCfg(m *numa.Machine, a *apps.App) *sim.Config {
	cfg := &sim.Config{Machine: m, Stats: a.Stats, Ingress: model.Saturated}
	if c.Quick {
		cfg.Duration = 0.5
	}
	return cfg
}

// Simulate runs the fluid simulator on an optimized plan.
func (c *Context) Simulate(a *apps.App, m *numa.Machine, r *rlas.Result) (*sim.Result, error) {
	return sim.Run(r.Graph, r.Placement, c.simCfg(m, a))
}

type entry struct {
	id, title string
	run       func(*Context) (*Report, error)
}

var registry []entry

func register(id, title string, run func(*Context) (*Report, error)) {
	registry = append(registry, entry{id, title, run})
}

// paperOrder is the order the artifacts appear in the paper.
var paperOrder = []string{
	"table2", "fig3", "table3", "table4",
	"fig6", "fig7", "table5", "fig8", "fig9a", "fig9b", "fig10", "fig11",
	"fig12", "fig13", "fig14", "fig15", "table7", "fig16",
}

// IDs lists all experiment identifiers in paper order (experiments
// registered outside the canonical list are appended at the end).
func IDs() []string {
	known := map[string]bool{}
	var out []string
	for _, id := range paperOrder {
		for _, e := range registry {
			if e.id == id {
				out = append(out, id)
				known[id] = true
			}
		}
	}
	for _, e := range registry {
		if !known[e.id] {
			out = append(out, e.id)
		}
	}
	return out
}

// Title returns the title of an experiment id ("" if unknown).
func Title(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.title
		}
	}
	return ""
}

// Run executes one experiment by id.
func Run(id string, ctx *Context) (*Report, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(ctx)
		}
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(known, ", "))
}

// fmtK formats tuples/sec as the paper's "K events/s" with one decimal.
func fmtK(v float64) string { return fmt.Sprintf("%.1f", v/1000) }

// fmtF formats a plain float with the given decimals.
func fmtF(v float64, dec int) string { return fmt.Sprintf("%.*f", dec, v) }
