package main

// Smoke test: main optimizes every paper app on both servers and must
// print the normalized table — for each server, one row per app with a
// positive RLAS throughput and every other strategy as a ratio to it
// (or n/a where a fixed-policy search finds no plan). main exits the
// process on an optimizer or simulator error, which fails the test too.

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestMainPrintsNormalizedTable(t *testing.T) {
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

	ratio := `\s+([0-9]+\.[0-9]{2}|n/a)`
	row := regexp.MustCompile(`(?m)^(WC|FD|SD|LR)\s+([0-9.]+)` + strings.Repeat(ratio, 5) + `$`)
	sections := strings.Split(out, "== ")
	if len(sections) != 3 {
		t.Fatalf("want one table per server (2), got %d in:\n%s", len(sections)-1, out)
	}
	for _, sec := range sections[1:] {
		rows := row.FindAllStringSubmatch(sec, -1)
		if len(rows) != 4 {
			t.Fatalf("want 4 app rows, got %d in:\n%s", len(rows), sec)
		}
		for _, m := range rows {
			if tps, _ := strconv.ParseFloat(m[2], 64); tps <= 0 {
				t.Errorf("%s: RLAS throughput %s, want > 0", m[1], m[2])
			}
		}
	}
	if !strings.Contains(out, "normalized to RLAS (1.00)") {
		t.Errorf("missing the normalization note in:\n%s", out)
	}
}
