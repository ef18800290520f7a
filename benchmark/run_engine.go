package main

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"syscall"
	"time"

	"briskstream/internal/apps"
	"briskstream/internal/engine"
)

// prepared is what one set-up produces for an engine workload: the app,
// the input block and the oracle's tally of it.
type prepared struct {
	w   *workload
	app *apps.App
	blk block
	ref *reference
}

// latBuf is the one latency sample buffer every trial's sink reuses: a
// fresh 10 MB per trial would make peak_rss_mb depend on when the
// collector happens to run. It holds every stamped row of the largest
// open-loop step; the saturation workloads stamp far fewer.
var latBuf = make([]int64, 0, 1<<20+1<<18)

// setUp does everything a run needs before its first trial can start.
// It is repeated (see measureSetUp), so rep tags whatever must be fresh
// for a repetition to cost what the first one costs.
func setUp(w *workload, seed uint64, rep int) (*prepared, error) {
	app := apps.ByName(w.App)
	if app == nil {
		return nil, fmt.Errorf("no app %q", w.App)
	}
	p := &prepared{w: w, app: app, blk: w.Gen(seed, rep)}
	p.ref = newReference(p.blk)
	// Warm-up is part of set-up: one block through a fresh engine lets
	// pools fill and first-use paths (schema validation, the splitter
	// meeting each word) finish before anything is timed, and checks
	// the wiring against the oracle before a long trial depends on it.
	t, err := p.run(blockSize, runOpts{})
	if err != nil {
		return nil, err
	}
	if t.Failed > 0 {
		return nil, fmt.Errorf("%s: warm-up failed the oracle on %d of %d records", w.Name, t.Failed, t.N)
	}
	return p, nil
}

// runOpts says how one trial runs.
type runOpts struct {
	// rate is the offered records/s of an open loop; 0 is a closed loop.
	rate float64
	// tr, when not nil, wraps every spout, operator and sink.
	tr *tracer
	// tune, when not nil, edits engine.DefaultConfig(), which every
	// measured trial runs untouched; prepare gets the engine between
	// New and Run. Only the two extra trials of the traced runs
	// (checkpointing, telemetry) set them.
	tune    func(*engine.Config)
	prepare func(*engine.Engine)
}

// newEngine wires the app with the benchmark's spout and sink in place
// of its own.
func (p *prepared) newEngine(n int, o runOpts) (*engine.Engine, *source, *sink, error) {
	src := &source{blk: p.blk, n: n, wmEvery: p.w.WmEvery, rate: o.rate}
	if o.rate > 0 {
		src.late = make([]lateSample, 0, 4096)
	}
	snk := newSink(p.w.Sink, latBuf, p.w.LatStride)
	topo := p.app.Topology(nil)
	topo.Spouts = map[string]func() engine.Spout{"spout": func() engine.Spout { return src }}
	topo.Operators = maps.Clone(topo.Operators)
	topo.Operators["sink"] = func() engine.Operator { return snk }
	if o.tr != nil {
		o.tr.wrap(&topo)
	}
	cfg := engine.DefaultConfig()
	if o.tune != nil {
		o.tune(&cfg)
	}
	e, err := engine.New(topo, cfg)
	if err == nil && o.prepare != nil {
		o.prepare(e)
	}
	return e, src, snk, err
}

// trial is one measured engine run.
type trial struct {
	N       int     `json:"n"`
	WallS   float64 `json:"wall_s"`
	CPUS    float64 `json:"cpu_s"`
	TPS     float64 `json:"tps"`
	Rows    int64   `json:"sink_rows"`
	Allocs  uint64  `json:"allocs"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MeanMs  float64 `json:"mean_ms"`
	Samples int     `json:"latency_samples"`
	Digest  string  `json:"digest"`
	Failed  int     `json:"failed"`
	// QueuePuts counts ring insertions (Engine.QueueStats).
	QueuePuts uint64 `json:"queue_puts"`

	snk *sink
	src *source
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run executes one trial of n records. Engine construction and the GC
// that levels the heap between trials are outside the measured time.
func (p *prepared) run(n int, o runOpts) (*trial, error) {
	tr := o.tr
	e, src, snk, err := p.newEngine(n, o)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	if tr != nil {
		tr.begin()
	}
	res, err := e.Run(0)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		tr.end(res.Duration)
	}
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	puts, _ := e.QueueStats()

	t := &trial{
		N:         n,
		WallS:     res.Duration.Seconds(),
		CPUS:      cpu,
		TPS:       float64(n) / res.Duration.Seconds(),
		Rows:      snk.rows,
		Allocs:    m1.Mallocs - m0.Mallocs,
		Digest:    fmt.Sprintf("%016x", snk.digest),
		QueuePuts: puts,
		snk:       snk,
		src:       src,
	}
	// Samples arrive in input order; the first tenth is warm-up (cold
	// pools, goroutines starting) and is left out.
	if lat := snk.lat[len(snk.lat)/10:]; len(lat) > 0 {
		var sum int64
		for _, v := range lat {
			sum += v
		}
		slices.Sort(lat)
		t.Samples = len(lat)
		t.MeanMs = float64(sum) / float64(len(lat)) / 1e6
		t.P50Ms = float64(percentile(lat, 50)) / 1e6
		t.P99Ms = float64(percentile(lat, 99)) / 1e6
	}
	t.Failed = p.ref.check(p.w.Sink, n, snk)
	if len(res.Errors) > 0 {
		t.Failed = n
	}
	for _, e := range res.Errors {
		return t, fmt.Errorf("%s: engine error: %w", p.w.Name, e)
	}
	return t, nil
}

// measureSetUp repeats set-up until it has three repetitions and 0.3 s
// of them (at most 25), and returns the last one with the median time:
// a cheap set-up needs many repetitions before its median holds still.
// The collection between repetitions (untimed) keeps one repetition's
// garbage from piling on the next and into peak_rss_mb.
func measureSetUp[T any](setUp func(rep int) (T, error)) (T, float64, []float64, error) {
	var (
		last  T
		times []float64
		total float64
	)
	for rep := 0; rep < 25 && (rep < 3 || total < 0.3); rep++ {
		runtime.GC()
		start := time.Now()
		p, err := setUp(rep)
		if err != nil {
			return last, 0, nil, err
		}
		d := time.Since(start).Seconds()
		times = append(times, d)
		total += d
		last = p
	}
	return last, median(times), times, nil
}
