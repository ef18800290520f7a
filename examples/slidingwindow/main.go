// Slidingwindow demonstrates the event-time window subsystem on the
// public API: a sensor source stamps each reading with an event
// timestamp and punctuates watermarks; a sliding window aggregates
// per-sensor averages; the sink prints each closed window. The input is
// deliberately emitted out of order — the watermark, not arrival order,
// decides when a window is complete, so the printed results are
// identical on every run and no reading is lost. Windows closing at
// the same instant print in the order their sensors first reported in
// them; main_test.go pins the results as a multiset.
//
//	go run ./examples/slidingwindow
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"

	"briskstream"
)

const (
	size  = 100 // window span (event-time ms)
	slide = 50  // refresh interval: each reading lands in two windows
	total = 600 // readings to emit
)

func main() {
	t := briskstream.NewTopology("sliding-avg")

	// Source: three sensors, one reading per event-ms, emitted in a
	// shuffled order. The source tracks exactly which event times have
	// left (a bitmap + cursor), so its punctuated low watermark is
	// precise: everything below it has been emitted, nothing is ever
	// dropped as late, results are exact.
	t.Spout("readings", func() briskstream.Spout {
		r := rand.New(rand.NewSource(1))
		order := make([]int, total)
		for i := range order {
			order[i] = i
		}
		for i := 0; i < total; i++ {
			j := i + r.Intn(min(16, total-i))
			order[i], order[j] = order[j], order[i]
		}
		emitted := make([]bool, total)
		low := 0 // all event times below this have been emitted
		i := 0
		return briskstream.SpoutFunc(func(c briskstream.Collector) error {
			if i >= total {
				return io.EOF // the engine flushes event time on EOF
			}
			et := int64(order[i])
			i++
			emitted[et] = true
			for low < total && emitted[low] {
				low++
			}
			out := c.Borrow()
			out.AppendSym(briskstream.InternSym(fmt.Sprintf("sensor-%d", et%3)))
			out.AppendFloat(20 + float64(et%17)) // deterministic "temperature"
			out.Event = et
			c.Send(out)
			if i%32 == 0 && low > 0 {
				c.EmitWatermark(int64(low) - 1)
			}
			return nil
		})
	})

	// Sliding per-sensor average on the window operator.
	t.Operator("avg", func() briskstream.Operator {
		type acc struct {
			sum float64
			n   int64
		}
		return briskstream.NewWindow(briskstream.WindowOp[acc]{
			KeyField: 0,
			Size:     size,
			Slide:    slide,
			Init:     func(a *acc) { *a = acc{} },
			Add: func(a *acc, b *briskstream.Batch, r int) {
				a.sum += b.Float(1, r)
				a.n++
			},
			Emit: func(c briskstream.Collector, key briskstream.Key, w briskstream.WindowSpan, a *acc) {
				out := c.Borrow()
				out.AppendKey(key)
				out.AppendInt(w.Start)
				out.AppendInt(w.End)
				out.AppendFloat(a.sum / float64(a.n))
				out.AppendInt(a.n)
				out.Event = w.End
				c.Send(out)
			},
		})
	}).Subscribe("readings", briskstream.FieldsKey(0))

	t.Sink("print", func() briskstream.Operator {
		return briskstream.OperatorFunc(func(c briskstream.Collector, tp *briskstream.Tuple) error {
			fmt.Printf("%-9s window [%3d,%3d)  avg %6.2f over %2d readings\n",
				tp.Str(0), tp.Int(1), tp.Int(2), tp.Float(3), tp.Int(4))
			return nil
		})
	}).Subscribe("avg", briskstream.Shuffle)

	res, err := t.Run(briskstream.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Errors) != 0 {
		log.Fatal(res.Errors)
	}
	fmt.Printf("\n%d windows closed from %d readings\n", res.SinkTuples, total)
}
