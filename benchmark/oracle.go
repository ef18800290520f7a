package main

import (
	"fmt"
	"math"

	"briskstream/internal/tuple"
)

// reference is the oracle's tally of the input block: what the sink
// must have seen once the first n generated records went through the
// program. It is computed from the generator's own data, never from the
// program's output — bounded equivalence checking applied to a
// benchmark: every run is compared with a reference over its whole
// (bounded) input.
type reference struct {
	// keys[k] names tally key k (a word or an entity); keyOf[i] lists
	// the keys record i contributes to (ten words, or one entity).
	keys  []string
	keyOf func(i int) []uint32
	// lrAccount[i] counts the account queries (types 2 and 3) among
	// records [0, i): all the oracle keeps of an LR block.
	lrAccount []int32
}

func newReference(blk block) *reference {
	switch b := blk.(type) {
	case *wcBlock:
		return &reference{keys: b.vocab, keyOf: func(i int) []uint32 {
			return b.words[i*wcWordsPerSentence : (i+1)*wcWordsPerSentence]
		}}
	case *fdBlock:
		names := make([]string, len(b.syms))
		for i, s := range b.syms {
			names[i] = s.Name()
		}
		one := make([]uint32, 1)
		return &reference{keys: names, keyOf: func(i int) []uint32 {
			one[0] = uint32(b.entity[i])
			return one
		}}
	case *lrBlock:
		r := &reference{lrAccount: make([]int32, blockSize+1)}
		for i, rec := range b.rec {
			r.lrAccount[i+1] = r.lrAccount[i]
			if rec[0] != lrTypePosition {
				r.lrAccount[i+1]++
			}
		}
		return r
	}
	panic(fmt.Sprintf("no reference for %T", blk))
}

// tally returns the expected total per key after n records: whole
// cycles of the block plus the prefix of the last, partial one.
func (r *reference) tally(n int) []int64 {
	out := make([]int64, len(r.keys))
	cycles, rest := int64(n/blockSize), n%blockSize
	for i := 0; i < blockSize; i++ {
		w := cycles
		if i < rest {
			w++
		}
		if w == 0 {
			break
		}
		for _, k := range r.keyOf(i) {
			out[k] += w
		}
	}
	return out
}

// check returns how many of the n input records have a missing or wrong
// result in the sink.
//
//   - WC: the per-word totals over all sink rows equal the generator's
//     tally exactly, whatever the window size, and no other word appears.
//   - FD: exactly n sink rows and the per-entity row counts equal the
//     tally.
//   - LR: at least n sink rows (every input record is answered once;
//     window statistics add more) and the account answers, which do not
//     depend on stream interleaving, number exactly the account queries.
func (r *reference) check(kind sinkKind, n int, s *sink) int {
	var wrong int64
	switch kind {
	case sinkWC, sinkFD:
		want := r.tally(n)
		var wantSum, gotSum int64
		for k, name := range r.keys {
			var got int64
			if sym, ok := tuple.LookupSym(name); ok && int(sym) < len(s.totals) {
				got = s.totals[sym]
			}
			wrong += abs(got - want[k])
			wantSum += want[k]
		}
		for _, v := range s.totals {
			gotSum += v
		}
		// Totals under keys the input never held.
		wrong += abs(gotSum - wantSum)
		if kind == sinkFD {
			wrong += abs(s.rows - int64(n))
		}
	case sinkLR:
		if s.rows < int64(n) {
			wrong += int64(n) - s.rows
		}
		want := int64(n/blockSize)*int64(r.lrAccount[blockSize]) + int64(r.lrAccount[n%blockSize])
		wrong += abs(s.defaultRows - want)
	}
	return int(min(wrong, int64(n)))
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// checkAcross applies the checks that need every trial of a run: FD's
// digest is identical across trials (one task per operator and FIFO
// queues make its output a function of the input), and LR's sink rows,
// which depend on how streams interleave, stay within 0.1 % of the
// trial median. It returns the records to count as failed.
func checkAcross(kind sinkKind, trials []*trial) int {
	if len(trials) < 2 {
		return 0
	}
	failed := 0
	switch kind {
	case sinkWC, sinkFD:
		for _, t := range trials[1:] {
			if t.N == trials[0].N && t.Digest != trials[0].Digest {
				failed += t.N
			}
		}
	case sinkLR:
		med := median(column(trials, func(t *trial) float64 { return float64(t.Rows) }))
		for _, t := range trials {
			if math.Abs(float64(t.Rows)-med) > med*0.001 {
				failed += t.N
			}
		}
	}
	return failed
}
