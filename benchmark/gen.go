package main

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"briskstream/internal/tuple"
)

// blockSize is the number of pre-generated records a spout cycles.
const blockSize = 1 << 16

// mix is the splitmix64 finaliser: the generators draw record i's j-th
// random number as mix(seed, i, j), so every record is a pure function
// of (seed, index) and no generator carries state.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func draw(seed uint64, i, j int) uint64 {
	return mix(mix(seed) ^ uint64(i)<<8 ^ uint64(j))
}

// block is one workload's pre-generated input: fill writes record i
// (0 <= i < blockSize) into a borrowed tuple in the app's declared
// spout schema.
type block interface {
	fill(i int, out *tuple.Tuple)
	// sum hashes the block's content; it is part of a record's def, so
	// a changed generator cannot pass for the same workload.
	sum() uint64
}

func fnv(h uint64, data []byte) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for _, c := range data {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// wcWords is a pinned copy of the 32-word vocabulary internal/apps
// ships with WC (it is unexported there).
var wcWords = []string{
	"stream", "process", "socket", "memory", "tuple", "operator", "plan",
	"latency", "remote", "local", "numa", "core", "thread", "queue",
	"batch", "window", "shuffle", "branch", "bound", "model", "rate",
	"output", "input", "scale", "brisk", "storm", "flink", "graph",
	"vertex", "edge", "cache", "line",
}

const wcWordsPerSentence = 10

// wcBlock holds blockSize ten-word sentences as one byte arena.
type wcBlock struct {
	arena []byte
	off   []uint32 // blockSize+1 offsets into arena
	// words[i*10+j] is the vocabulary index of sentence i's j-th word;
	// the oracle tallies from it.
	words []uint32
	vocab []string
}

func (b *wcBlock) fill(i int, out *tuple.Tuple) {
	out.AppendStrBytes(b.arena[b.off[i]:b.off[i+1]])
}

func (b *wcBlock) sum() uint64 { return fnv(0, b.arena) }

// genWC draws sentences over vocab. With zipf == 0 words are uniform;
// otherwise word rank r is drawn with probability ∝ 1/r^zipf. The
// vocabulary is bulk-interned here, in set-up: the splitter interns
// every word it emits, and tuple.InternSym on a name it has not seen
// copies the whole symbol table (a first wide-vocabulary run without
// this took 180 s; tuple.intern_cold_us_per_sym is that path).
func genWC(seed uint64, vocab []string, zipf float64) *wcBlock {
	tuple.InternSyms(vocab...)
	var cdf []float64
	if zipf > 0 {
		cdf = make([]float64, len(vocab))
		sum := 0.0
		for r := range cdf {
			sum += 1 / math.Pow(float64(r+1), zipf)
			cdf[r] = sum
		}
		for r := range cdf {
			cdf[r] /= sum
		}
	}
	b := &wcBlock{
		off:   make([]uint32, 0, blockSize+1),
		words: make([]uint32, 0, blockSize*wcWordsPerSentence),
		vocab: vocab,
	}
	for i := 0; i < blockSize; i++ {
		b.off = append(b.off, uint32(len(b.arena)))
		for j := 0; j < wcWordsPerSentence; j++ {
			u := draw(seed, i, j)
			var w int
			if cdf == nil {
				w = int(u % uint64(len(vocab)))
			} else {
				w, _ = slices.BinarySearch(cdf, float64(u>>11)/(1<<53))
				w = min(w, len(vocab)-1)
			}
			if j > 0 {
				b.arena = append(b.arena, ' ')
			}
			b.arena = append(b.arena, vocab[w]...)
			b.words = append(b.words, uint32(w))
		}
	}
	b.off = append(b.off, uint32(len(b.arena)))
	return b
}

// wideVocab names the 100 000-word vocabulary. The tag makes each
// set-up repetition intern fresh names, so every repetition pays the
// bulk-interning cost a first run pays.
func wideVocab(n int, tag string) []string {
	v := make([]string, n)
	for i := range v {
		v[i] = tag + strconv.Itoa(i)
	}
	return v
}

const fdEntities = 10000

// fdBlock holds blockSize transaction records: an entity symbol (the
// app's own "cust-%05d" population) and a ≈60-byte comma-separated
// record carried as an arena string.
type fdBlock struct {
	syms   []tuple.Sym // the entity population
	entity []uint16    // per record, index into syms
	arena  []byte
	off    []uint32
}

func (b *fdBlock) fill(i int, out *tuple.Tuple) {
	out.AppendSym(b.syms[b.entity[i]])
	out.AppendStrBytes(b.arena[b.off[i]:b.off[i+1]])
}

func (b *fdBlock) sum() uint64 { return fnv(0, b.arena) }

func genFD(seed uint64) *fdBlock {
	names := make([]string, fdEntities)
	for i := range names {
		names[i] = fmt.Sprintf("cust-%05d", i)
	}
	b := &fdBlock{
		syms:   tuple.InternSyms(names...),
		entity: make([]uint16, blockSize),
		off:    make([]uint32, 0, blockSize+1),
	}
	mods := [...]uint64{100000, 9999, 100, 24, 60, 2, 1 << 62}
	for i := 0; i < blockSize; i++ {
		e := int(draw(seed, i, 0) % fdEntities)
		b.entity[i] = uint16(e)
		b.off = append(b.off, uint32(len(b.arena)))
		b.arena = append(b.arena, names[e]...)
		for j, m := range mods {
			b.arena = append(b.arena, ',')
			b.arena = strconv.AppendUint(b.arena, draw(seed, i, j+1)%m, 10)
		}
	}
	b.off = append(b.off, uint32(len(b.arena)))
	return b
}

// LR record types, as internal/apps declares them on its input stream.
const (
	lrTypePosition = 0
	lrTypeBalance  = 2
	lrTypeDaily    = 3
)

// lrBlock holds blockSize all-integer LR input records:
// (type, vehicle, speed, xway, lane, segment, position).
type lrBlock struct {
	rec [][7]int64
}

func (b *lrBlock) fill(i int, out *tuple.Tuple) {
	for _, v := range b.rec[i] {
		out.AppendInt(v)
	}
}

func (b *lrBlock) sum() uint64 {
	var h uint64
	for _, rec := range b.rec {
		for _, v := range rec {
			h = mix(h ^ uint64(v))
		}
	}
	return h
}

func genLR(seed uint64) *lrBlock {
	b := &lrBlock{rec: make([][7]int64, blockSize)}
	for i := range b.rec {
		typ := int64(lrTypePosition)
		switch p := draw(seed, i, 0) % 1000; {
		case p < 3:
			typ = lrTypeBalance
		case p < 5:
			typ = lrTypeDaily
		}
		speed := int64(draw(seed, i, 2) % 100)
		if draw(seed, i, 3)%500 == 0 {
			speed = 0 // stopped vehicle: potential accident
		}
		b.rec[i] = [7]int64{
			typ,
			int64(draw(seed, i, 1) % 50000),
			speed,
			int64(draw(seed, i, 4) % 2),
			int64(draw(seed, i, 5) % 4),
			int64(draw(seed, i, 6) % 100),
			int64(draw(seed, i, 7) % 528000),
		}
	}
	return b
}
