// Command rlas optimizes a benchmark application for a target machine
// and prints the resulting execution plan: replication levels, socket
// placement, predicted throughput and the bottleneck trace.
//
//	rlas -app WC
//	rlas -app LR -machine B -sockets 4 -ratio 1
//
// The default target is the machine under us: the NUMA topology probed
// from sysfs (numa.DetectHost), turned into a calibrated model. The
// paper's Table 2 servers remain available as -machine A (KunLun) and
// -machine B (DL980).
//
// -live closes the loop on the real engine: the plan is translated to
// an engine configuration (replication + placement labels), run with
// live profiling for the given duration, and the observed statistics
// are fed back through the adaptive advisor, which prints the drift
// against the calibrated baseline and its re-optimization verdict:
//
//	rlas -app WC -machine A -live 2s
//
// Two modes inspect an application instead of optimizing it:
//
//	rlas -describe             # topology + model statistics of all five applications
//	rlas -describe -app LR     # one application
//	rlas -app WC -profile 5000 # profile the Go operators in isolation (Section 3.1)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/bnb"
	"briskstream/internal/model"
	"briskstream/internal/numa"
	"briskstream/internal/rlas"
	"briskstream/internal/sim"
)

func main() {
	var (
		appName = flag.String("app", "WC", "application: WC, FD, SD, LR or TW")
		machine = flag.String("machine", "host", "target machine: host (detected topology), A (KunLun) or B (DL980)")
		sockets = flag.Int("sockets", 8, "number of sockets to enable (1-8)")
		ratio   = flag.Int("ratio", 5, "execution-graph compress ratio r")
		nodes   = flag.Int("nodes", 1500, "branch-and-bound node limit per round")
		iters   = flag.Int("iters", 40, "max scaling iterations")
		trace   = flag.Bool("trace", false, "print the per-iteration scaling trace")
		live    = flag.Duration("live", 0, "run the plan on the real engine for this duration, live-profile it, and print the advisor's drift/re-optimization verdict")
		metrics = flag.String("metrics", "", "with -live: serve /metrics with engine series plus observed-vs-baseline drift gauges on this address")
		desc    = flag.Bool("describe", false, "print the topology and model statistics of -app (of every application when -app is not given) and exit")
		prof    = flag.Int("profile", 0, "profile -app's operators in isolation over this many sample invocations each, print their median statistics and exit")
	)
	flag.Parse()

	a := apps.ByName(*appName)
	if a == nil {
		fmt.Fprintf(os.Stderr, "unknown app %q (use WC, FD, SD, LR or TW)\n", *appName)
		os.Exit(2)
	}
	if *desc || *prof > 0 {
		inspect := func(a *apps.App) error { return profileApp(a, *prof) }
		which := []*apps.App{a}
		if *desc {
			inspect = describe
			appGiven := false
			flag.Visit(func(f *flag.Flag) { appGiven = appGiven || f.Name == "app" })
			if !appGiven {
				which = apps.Benchmarks()
			}
		}
		for _, a := range which {
			if err := inspect(a); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}
	var m *numa.Machine
	switch *machine {
	case "host", "HOST":
		m = numa.DetectHost().Machine()
	case "A", "a":
		m = numa.ServerA()
	case "B", "b":
		m = numa.ServerB()
	default:
		fmt.Fprintf(os.Stderr, "unknown machine %q (use host, A or B)\n", *machine)
		os.Exit(2)
	}
	if *sockets < m.Sockets {
		var err error
		if m, err = m.Restrict(*sockets); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	fmt.Printf("optimizing %s for %s (compress r=%d)\n\n", a.Name, m, *ratio)
	seed, err := rlas.SeedReplication(a.Graph, a.Stats, m.TotalCores(), 0.7)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	r, err := rlas.Optimize(a.Graph, rlas.Config{
		Model:         &model.Config{Machine: m, Stats: a.Stats, Ingress: model.Saturated},
		Compress:      *ratio,
		BnB:           bnb.Config{NodeLimit: *nodes},
		Initial:       seed,
		MaxIterations: *iters,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("predicted throughput: %.1f K events/s\n", r.Eval.Throughput/1000)
	fmt.Printf("optimization: %d iterations in %v\n\n", r.Iterations, r.Elapsed.Round(time.Millisecond))

	fmt.Println("replication:")
	var ops []string
	for op := range r.Replication {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Printf("  %-18s x%d\n", op, r.Replication[op])
	}
	fmt.Println("\nplacement:")
	fmt.Print(r.Placement.String(r.Graph))

	sr, err := sim.Run(r.Graph, r.Placement, &sim.Config{
		Machine: m, Stats: a.Stats, Ingress: model.Saturated,
	})
	if err == nil {
		fmt.Printf("\nsimulated steady state: %.1f K events/s (relative error %.2f)\n",
			sr.Throughput/1000, model.RelativeError(sr.Throughput, r.Eval.Throughput))
	}

	if *trace {
		fmt.Println("\nscaling trace:")
		for i, tr := range r.Trace {
			fmt.Printf("  iter %2d: %8.1f K/s  grew %-16s %v\n",
				i, tr.Throughput/1000, tr.Bottleneck, tr.Replication)
		}
	}

	if *live > 0 {
		if err := runLive(a, m, r, *live, *metrics); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
