// Quickstart: build a three-stage pipeline on the public API, run it on
// the in-process engine, and print throughput and latency.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"briskstream"
)

func main() {
	t := briskstream.NewTopology("quickstart")

	// A spout producing sentences forever; the run is time-bounded. The
	// Borrow/Send surface reuses scratch rows (typed slots + string
	// arena), so the only per-event allocation is formatting the
	// sentence itself. Emits declares the stream's typed schema. The
	// event number cycles through 1000 values: the splitter interns
	// every word, and symbols must come from a bounded set.
	t.Spout("sentences", func() briskstream.Spout {
		i := 0
		return briskstream.SpoutFunc(func(c briskstream.Collector) error {
			i++
			out := c.Borrow()
			out.AppendStr(fmt.Sprintf("event %d from the quickstart stream pipeline", i%1000))
			c.Send(out)
			return nil
		})
	}).Emits(briskstream.DefaultStream, briskstream.StrField("sentence"))

	// Split sentences into words (selectivity ~6 words per sentence).
	// Words are a low-cardinality hot set, so they travel as interned
	// symbols: a 4-byte id, no per-word boxing or copying.
	t.Operator("split", func() briskstream.Operator {
		return briskstream.OperatorFunc(func(c briskstream.Collector, tp *briskstream.Tuple) error {
			for _, w := range strings.Fields(tp.Str(0)) {
				out := c.Borrow()
				out.AppendSym(briskstream.InternSym(w))
				c.Send(out)
			}
			return nil
		})
	}).Subscribe("sentences", briskstream.Shuffle).
		Selectivity(briskstream.DefaultStream, 6).
		Emits(briskstream.DefaultStream, briskstream.SymField("word"))

	// Count words; fields grouping pins each word to one replica.
	// Symbol names are stable interned strings, so they are safe map
	// keys without cloning.
	t.Operator("count", func() briskstream.Operator {
		counts := map[string]int64{}
		return briskstream.OperatorFunc(func(c briskstream.Collector, tp *briskstream.Tuple) error {
			w := tp.Str(0)
			counts[w]++
			out := c.Borrow()
			out.AppendSym(tp.Sym(0))
			out.AppendInt(counts[w])
			c.Send(out)
			return nil
		})
	}).Subscribe("split", briskstream.FieldsKey(0)).Parallelism(2).
		Emits(briskstream.DefaultStream, briskstream.SymField("word"), briskstream.IntField("count"))

	t.Sink("sink", func() briskstream.Operator {
		return briskstream.OperatorFunc(func(c briskstream.Collector, tp *briskstream.Tuple) error {
			return nil
		})
	}).Subscribe("count", briskstream.Shuffle)

	res, err := t.Run(briskstream.RunConfig{Duration: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Errors) > 0 {
		log.Fatalf("runtime errors: %v", res.Errors)
	}
	fmt.Printf("processed %d tuples in %v\n", res.SinkTuples, res.Duration.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f tuples/s\n", res.Throughput)
	fmt.Printf("latency: p50 %.3f ms, p99 %.3f ms\n", res.LatencyP50, res.LatencyP99)
}
