package main

// Smoke test: main runs the three-stage pipeline on the public API for
// its fixed duration and must deliver tuples to the sink, while the
// splitter interns only the sentences' bounded word set. main exits
// the process on a run error, which fails the test too.

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"testing"

	"briskstream/internal/tuple"
)

func TestMainProcessesBoundedSymbols(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	read := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		read <- string(b)
	}()
	defer func() { os.Stdout = stdout }()
	syms := tuple.SymCount()
	main()
	os.Stdout = stdout
	w.Close()
	out := <-read

	m := regexp.MustCompile(`processed (\d+) tuples`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("missing the \"processed N tuples\" line in:\n%s", out)
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Errorf("the sink saw no tuples:\n%s", out)
	}
	// 1000 event numbers plus the sentence's six fixed words.
	if grew := tuple.SymCount() - syms; grew > 1010 {
		t.Errorf("the run interned %d symbols, want at most 1010 (a bounded word set)", grew)
	}
}
