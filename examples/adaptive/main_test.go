package main

// Smoke test: main runs the word count under the autoscaler on the
// public API, with no profiling option set, until the bounded stream
// has drained. main exits the process on a run error, which fails the
// test too.

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestMainDrainsUnderAutoscaler(t *testing.T) {
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

	const want = "drained 400000 sentences"
	if !strings.Contains(out, want) {
		t.Errorf("missing the %q line in:\n%s", want, out)
	}
}
