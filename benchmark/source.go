package main

import (
	"io"
	"math"
	"time"

	"briskstream/internal/engine"
	"briskstream/internal/tuple"
)

// source is the benchmark's spout: it replaces App.Spouts["spout"], so
// the program receives only records generated from -seed. Record i
// carries event time i+1. With rate == 0 it is a closed loop (Next
// emits one record per call, as fast as backpressure admits); with
// rate > 0 it is an open loop on a 1 ms tick (see nextOpen).
type source struct {
	blk block
	n   int // records to emit before io.EOF
	i   int
	// wmEvery punctuates a watermark every wmEvery records; 0 sends
	// none, as the shipped FD spout does.
	wmEvery int

	rate     float64 // offered records/s; 0 = closed loop
	start    time.Time
	dueUntil int // records due at the last clock read
	late     []lateSample
	slept    time.Duration // total time asleep waiting for the next tick
}

// lateSample is how late the generator ran at one clock read: the time
// since the oldest record it had not yet emitted became due.
type lateSample struct {
	at   time.Duration // since the step started
	late time.Duration
}

const tick = time.Millisecond

func (s *source) Next(c engine.Collector) error {
	if s.i >= s.n {
		return io.EOF
	}
	var ts time.Time
	if s.rate > 0 {
		if !s.nextOpen() {
			return nil
		}
		ts = s.due(s.i)
	}
	out := c.Borrow()
	s.blk.fill(s.i&(blockSize-1), out)
	s.i++
	out.Event = int64(s.i)
	out.Ts = ts
	c.Send(out)
	if s.wmEvery > 0 && s.i%s.wmEvery == 0 {
		c.EmitWatermark(int64(s.i))
	}
	return nil
}

func (s *source) due(i int) time.Time {
	return s.start.Add(time.Duration(float64(i) / s.rate * float64(time.Second)))
}

// nextOpen reports whether record s.i is due. The schedule never slows
// with the system: record i is due at start + i/rate, and a record is
// stamped with that due time, not the time it was sent, so a stall
// charges the wait to every record it delayed. The clock is read once
// per burst: when the records due at the last read are all out, read
// again, and sleep to the next tick if nothing more is due.
func (s *source) nextOpen() bool {
	if s.i < s.dueUntil {
		return true
	}
	if s.start.IsZero() {
		s.start = time.Now()
	}
	el := time.Since(s.start)
	s.dueUntil = min(s.n, int(el.Seconds()*s.rate)+1)
	if s.i < s.dueUntil {
		s.late = append(s.late, lateSample{at: el, late: time.Since(s.due(s.i))})
		return true
	}
	time.Sleep(tick - el%tick)
	s.slept += time.Since(s.start) - el
	return false
}

type sinkKind uint8

const (
	sinkWC sinkKind = iota // rows (word sym, count int)
	sinkFD                 // rows (entity sym, fraud bool)
	sinkLR                 // rows on three streams; see oracle.go
)

// sink replaces App.Operators["sink"]. It implements Process and
// ProcessBatch, so the engine wires the sink edge the way it does for
// the shipped (batch-aware) sink. It keeps what the oracle needs —
// per-key totals, an order-independent digest of the rows — and the
// latency of every latStride-th stamped row.
type sink struct {
	kind sinkKind
	rows int64
	// totals is indexed by symbol id: WC sums counts per word, FD counts
	// rows per entity.
	totals []int64
	digest uint64
	// defaultRows counts LR rows on the default stream (account
	// answers), the part of LR's output that does not depend on how the
	// streams interleave.
	defaultRows int64
	symHash     []uint64 // FNV-1a of each symbol's name, 0 = not yet computed

	lat       []int64 // ns, arrival − Ts, preallocated
	latStride int
	stamped   int
	last      time.Time // arrival of the last row
}

func newSink(kind sinkKind, latBuf []int64, latStride int) *sink {
	return &sink{kind: kind, lat: latBuf[:0], latStride: max(latStride, 1)}
}

func (s *sink) nameHash(sym tuple.Sym) uint64 {
	for int(sym) >= len(s.symHash) {
		s.symHash = append(s.symHash, make([]uint64, len(s.symHash)+1024)...)
	}
	if h := s.symHash[sym]; h != 0 {
		return h
	}
	h := fnv(0, []byte(sym.Name())) | 1
	s.symHash[sym] = h
	return h
}

func (s *sink) keyed(sym tuple.Sym, add int64, rowHash uint64) {
	for int(sym) >= len(s.totals) {
		s.totals = append(s.totals, make([]int64, len(s.totals)+1024)...)
	}
	s.totals[sym] += add
	s.digest += mix(s.nameHash(sym) ^ rowHash)
}

func (s *sink) observe(now, ts time.Time) {
	if ts.IsZero() {
		return
	}
	if s.stamped++; s.stamped%s.latStride == 0 && len(s.lat) < cap(s.lat) {
		s.lat = append(s.lat, int64(now.Sub(ts)))
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (s *sink) Process(_ engine.Collector, t *tuple.Tuple) error {
	now := time.Now()
	switch s.kind {
	case sinkWC:
		s.keyed(t.Sym(0), t.Int(1), mix(uint64(t.Int(1)))^uint64(t.Event))
	case sinkFD:
		s.keyed(t.Sym(0), 1, b2u(t.Bool(1)))
	case sinkLR:
		if t.Stream == tuple.DefaultStreamID {
			s.defaultRows++
			s.digest += mix(uint64(t.Int(0)) ^ mix(math.Float64bits(t.Float(1))))
		}
	}
	s.observe(now, t.Ts)
	s.rows++
	s.last = now
	return nil
}

func (s *sink) ProcessBatch(_ engine.Collector, b *tuple.Batch) error {
	now := time.Now()
	n := b.Len()
	switch s.kind {
	case sinkWC:
		for r := 0; r < n; r++ {
			s.keyed(b.Sym(0, r), b.Int(1, r), mix(uint64(b.Int(1, r)))^uint64(b.Event(r)))
		}
	case sinkFD:
		for r := 0; r < n; r++ {
			s.keyed(b.Sym(0, r), 1, b2u(b.Bool(1, r)))
		}
	case sinkLR:
		if b.Stream == tuple.DefaultStreamID {
			for r := 0; r < n; r++ {
				s.defaultRows++
				s.digest += mix(uint64(b.Int(0, r)) ^ mix(math.Float64bits(b.Float(1, r))))
			}
		}
	}
	for r := 0; r < n; r++ {
		s.observe(now, b.Ts(r))
	}
	s.rows += int64(n)
	s.last = now
	return nil
}
