package main

// Smoke test: main optimizes LR's plan for Server A and then runs the
// topology on the real engine for two seconds; it must report a
// positive predicted throughput, events at the sinks and work done by
// the dispatcher and the toll notifier. Timings are not compared. main
// exits the process on an optimizer or run error, which fails the test
// too.

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"testing"
)

func TestMainPlansAndRuns(t *testing.T) {
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

	positive := func(pattern string) {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("no line matching %q in:\n%s", pattern, out)
		}
		if v, _ := strconv.ParseFloat(m[1], 64); v <= 0 {
			t.Errorf("%q reads %s, want > 0:\n%s", pattern, m[1], out)
		}
	}
	positive(`(?m)^predicted throughput: ([0-9.]+) K events/s`)
	positive(`(?m)^sink events: ([0-9]+) `)
	positive(`(?m)dispatcher=([0-9]+)`)
	positive(`(?m)toll_notify=([0-9]+)`)
}
