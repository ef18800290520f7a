package main

// Smoke test: main runs the failure-free reference, the crashed run and
// the recovery end to end on the public API, and reports the recovered
// output identical to the reference. main exits the process on a
// mismatch, which fails the test too.

import (
	"io"
	"os"
	"strings"
	"testing"
)

func TestMainRecoversIdenticalOutput(t *testing.T) {
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

	const want = "recovered output is identical to the failure-free run"
	if !strings.Contains(out, want) {
		t.Errorf("missing the %q line in:\n%s", want, out)
	}
}
