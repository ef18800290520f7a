package main

// Smoke test: main optimizes WC with RLAS, simulates the plan, then runs
// it on the real engine with the plan's replication scaled down — the
// splitter replicated, each replica with its own symbol cache — and
// must report a non-zero throughput. main exits the process on an
// optimizer or run error, which fails the test too.

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"testing"
)

func TestMainRunsOptimizedPlan(t *testing.T) {
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
	main()
	os.Stdout = stdout
	w.Close()
	out := <-read

	m := regexp.MustCompile(`throughput: ([0-9.]+) words/s`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("missing the \"throughput:\" line in:\n%s", out)
	}
	if tps, _ := strconv.ParseFloat(m[1], 64); tps <= 0 {
		t.Errorf("zero throughput:\n%s", out)
	}
}
