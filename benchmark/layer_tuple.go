package main

import (
	"fmt"
	"strconv"
	"time"

	"briskstream/internal/tuple"
	"briskstream/internal/vec"
)

// fdLike fills t the way an FD record is laid out: an entity symbol and
// a 60-byte arena string.
func fdLike(t *tuple.Tuple, sym tuple.Sym) {
	t.AppendSym(sym)
	t.AppendStr("cust-00042,73125,4410,57,13,42,1,3520988012339871254xxxxxxxx")
}

func microTuple(rep *report) error {
	const ops = 1 << 20
	pool := tuple.NewPool()
	rep.set("tuple.pool_getput_ns", fastest(ops, func() {
		for i := 0; i < ops; i++ {
			pool.Get().Release()
		}
	}))

	sym := tuple.InternSym("cust-00042")
	src := pool.Get()
	defer src.Release()
	fdLike(src, sym)
	batch := tuple.NewBatch(64)
	rep.set("tuple.batch_append_ns", fastest(ops, func() {
		for i := 0; i < ops; i++ {
			if batch.Full() {
				batch.Reset()
			}
			batch.Append(src)
		}
	}))

	var buf []byte
	var err error
	rep.set("tuple.marshal_ns", fastest(ops/8, func() {
		for i := 0; i < ops/8 && err == nil; i++ {
			buf = tuple.Marshal(src, buf[:0])
			_, _, err = tuple.Unmarshal(buf)
		}
	}))
	if err != nil {
		return fmt.Errorf("tuple microbenchmark: %w", err)
	}

	key := pool.Get()
	defer key.Release()
	key.AppendStr("cust-00042")
	var h uint64
	rep.set("tuple.key_hash_ns", fastest(ops, func() {
		for i := 0; i < ops; i++ {
			h += key.Hash(0)
		}
	}))

	batch.Reset()
	for !batch.Full() {
		batch.Append(src)
	}
	selected := 0
	rep.set("vec.select_ns_per_row", fastest(ops, func() {
		for i := 0; i < ops/64; i++ {
			selected += len(vec.SelectStrNonEmpty(batch, 1, batch.SelScratch()))
		}
	}))
	if selected == 0 || h == 0 {
		return fmt.Errorf("tuple microbenchmark: kernels did no work")
	}
	return nil
}

// microIntern times symbol interning on names the table has never
// seen, so it runs once, before set-up: each call grows the table for
// good, and the cold path's cost is the size of the table it copies.
func microIntern(rep *report) {
	fresh := func(n int, tag string) []string {
		names := make([]string, n)
		for i := range names {
			names[i] = tag + strconv.Itoa(i)
		}
		return names
	}
	bulk := fresh(4096, "bulk.")
	start := time.Now()
	tuple.InternSyms(bulk...)
	rep.set("tuple.intern_bulk_us_per_sym", float64(time.Since(start))/1e3/float64(len(bulk)))

	cold := fresh(128, "cold.")
	start = time.Now()
	for _, name := range cold {
		tuple.InternSym(name)
	}
	rep.set("tuple.intern_cold_us_per_sym", float64(time.Since(start))/1e3/float64(len(cold)))
}
