// Package t0 records when the benchmark process began initialising its
// packages. Go initialises packages in import-path order among those
// whose imports are ready, and "briskstream/benchmark/t0" sorts before
// every "briskstream/internal/..." package, so Start is taken before the
// apps' package-level set-up (vocabulary and entity interning) runs and
// that work lands in setup_s.
package t0

import "time"

// Start is the earliest instant the benchmark can observe.
var Start = time.Now()
