package main

import (
	"fmt"

	"briskstream/internal/apps"
	"briskstream/internal/experiments"
)

// describe prints an application's topology: operators, streams with
// partitioning and selectivity, and the canned operator statistics
// (Te / M / N) that instantiate the performance model.
func describe(a *apps.App) error {
	fmt.Printf("== %s (%d operators) ==\n", a.Name, a.Graph.Len())
	order, err := a.Graph.TopoSort()
	if err != nil {
		return err
	}
	for _, op := range order {
		n := a.Graph.Node(op)
		role := "operator"
		if n.IsSpout {
			role = "spout"
		} else if n.IsSink {
			role = "sink"
		}
		st := a.Stats[op]
		fmt.Printf("%-16s %-8s Te=%6.0fns  N=%4.0fB  M=%4.0fB/tuple\n", op, role, st.Te, st.N, st.M)
		for _, e := range a.Graph.Out(op) {
			fmt.Printf("    --[%s, %s, sel=%.3f]--> %s\n",
				e.Stream, e.Partitioning, st.Selectivity[e.Stream], e.To)
		}
	}
	fmt.Println()
	return nil
}

// profileApp measures the real Go operator implementations of a in
// isolation — the paper's model-instantiation step (Section 3.1) — and
// prints the median statistics next to the packaged ones.
func profileApp(a *apps.App, samples int) error {
	profs, err := experiments.ProfileIsolated(a, samples)
	if err != nil {
		return err
	}
	fmt.Printf("profiling %s: %d samples per operator, p50 statistics\n\n", a.Name, samples)
	rows := [][]string{}
	for i := range profs {
		p := &profs[i]
		st, err := p.Reduce(0.5)
		if err != nil {
			rows = append(rows, []string{p.Op, "-", "-", "-", "(no sample input reached this operator)"})
			continue
		}
		rows = append(rows, []string{
			p.Op,
			fmt.Sprintf("%.0f", st.Te),
			fmt.Sprintf("%.0f", st.N),
			fmt.Sprintf("%.2f", st.Selectivity["default"]),
			fmt.Sprintf("canned Te=%.0f (ServerA-calibrated)", a.Stats[p.Op].Te),
		})
	}
	fmt.Print(experiments.Table(
		[]string{"operator", "Te (ns, this host)", "N (bytes)", "selectivity", "notes"}, rows))
	fmt.Println("\nmeasured Te is host-specific; the packaged statistics are calibrated to the paper's Server A clock.")
	return nil
}
