package main

// Smoke test: main runs end to end on the public API, and its windowed
// output is pinned as a multiset. Within one fire time the window
// operator emits in first-touch order, so the print order may change
// with the operator's internals; which windows close, with which
// averages, may not.

import (
	"io"
	"os"
	"slices"
	"strings"
	"testing"
)

// golden is the per-window result multiset, sorted.
var golden = []string{
	"sensor-0  window [  0,100)  avg  28.00 over 34 readings",
	"sensor-0  window [ 50,150)  avg  27.82 over 33 readings",
	"sensor-0  window [-50, 50)  avg  28.00 over 17 readings",
	"sensor-0  window [100,200)  avg  27.82 over 33 readings",
	"sensor-0  window [150,250)  avg  28.00 over 34 readings",
	"sensor-0  window [200,300)  avg  27.91 over 33 readings",
	"sensor-0  window [250,350)  avg  27.91 over 33 readings",
	"sensor-0  window [300,400)  avg  28.00 over 34 readings",
	"sensor-0  window [350,450)  avg  28.00 over 33 readings",
	"sensor-0  window [400,500)  avg  28.00 over 33 readings",
	"sensor-0  window [450,550)  avg  28.00 over 34 readings",
	"sensor-0  window [500,600)  avg  28.09 over 33 readings",
	"sensor-0  window [550,650)  avg  28.19 over 16 readings",
	"sensor-1  window [  0,100)  avg  27.79 over 33 readings",
	"sensor-1  window [ 50,150)  avg  27.79 over 33 readings",
	"sensor-1  window [-50, 50)  avg  28.00 over 17 readings",
	"sensor-1  window [100,200)  avg  28.00 over 34 readings",
	"sensor-1  window [150,250)  avg  27.88 over 33 readings",
	"sensor-1  window [200,300)  avg  27.88 over 33 readings",
	"sensor-1  window [250,350)  avg  28.00 over 34 readings",
	"sensor-1  window [300,400)  avg  27.97 over 33 readings",
	"sensor-1  window [350,450)  avg  27.97 over 33 readings",
	"sensor-1  window [400,500)  avg  28.00 over 34 readings",
	"sensor-1  window [450,550)  avg  28.06 over 33 readings",
	"sensor-1  window [500,600)  avg  28.06 over 33 readings",
	"sensor-1  window [550,650)  avg  28.00 over 17 readings",
	"sensor-2  window [  0,100)  avg  27.76 over 33 readings",
	"sensor-2  window [ 50,150)  avg  28.00 over 34 readings",
	"sensor-2  window [-50, 50)  avg  27.50 over 16 readings",
	"sensor-2  window [100,200)  avg  27.85 over 33 readings",
	"sensor-2  window [150,250)  avg  27.85 over 33 readings",
	"sensor-2  window [200,300)  avg  28.00 over 34 readings",
	"sensor-2  window [250,350)  avg  27.94 over 33 readings",
	"sensor-2  window [300,400)  avg  27.94 over 33 readings",
	"sensor-2  window [350,450)  avg  28.00 over 34 readings",
	"sensor-2  window [400,500)  avg  28.03 over 33 readings",
	"sensor-2  window [450,550)  avg  28.03 over 33 readings",
	"sensor-2  window [500,600)  avg  28.00 over 34 readings",
	"sensor-2  window [550,650)  avg  28.00 over 17 readings",
}

func TestMainOutput(t *testing.T) {
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

	var windows []string
	closed := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.Contains(line, " window ["):
			windows = append(windows, line)
		case line == "39 windows closed from 600 readings":
			closed = true
		}
	}
	slices.Sort(windows)
	if !slices.Equal(windows, golden) {
		t.Errorf("window results differ from the golden multiset:\n got %q\nwant %q", windows, golden)
	}
	if !closed {
		t.Errorf("missing the \"39 windows closed from 600 readings\" line in:\n%s", out)
	}
}
