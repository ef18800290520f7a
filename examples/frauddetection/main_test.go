package main

// Smoke test: main runs FD on the real engine, first on the BriskStream
// path and then behind the Storm-like decorator, and must report a
// non-zero throughput for the BriskStream row and a row for the
// Storm-like one. Timings are not compared: the runs are 2 s each on
// whatever machine the test runs on. main exits the process on a run
// error, which fails the test too.

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestMainReportsBothPaths(t *testing.T) {
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

	m := regexp.MustCompile(`(?m)^briskstream\s+([0-9.]+) tuples/s`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("missing the \"briskstream ... tuples/s\" line in:\n%s", out)
	}
	if tps, _ := strconv.ParseFloat(m[1], 64); tps <= 0 {
		t.Errorf("zero BriskStream throughput:\n%s", out)
	}
	if !strings.Contains(out, "storm-like") {
		t.Errorf("missing the storm-like row in:\n%s", out)
	}
}
