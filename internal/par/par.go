// Package par is cxlsim's deterministic fan-out primitive: a bounded
// worker pool that runs index-addressed work and leaves result placement
// to the caller, so output order never depends on scheduling. Every
// parallel loop in the experiment stack (mlc sweeps, the llm thread
// sweep, core's per-config loops and RunAll, warm-up key batches) goes
// through ForEach with results written to index i of a pre-sized slice —
// which is why the parallel experiment harness produces byte-identical
// tables to serial runs.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a requested parallelism: n > 0 is honored, anything
// else means GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (Workers-normalized) and returns when all calls complete. fn must write
// its result to caller-owned, index-i storage; it must not append to
// shared slices or depend on invocation order. With workers == 1 (or
// n == 1) everything runs on the calling goroutine — the serial baseline
// that parallel runs are validated against.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachErr is ForEach for fallible work: it runs fn(i) for every i in
// [0, n) and returns the error from the lowest index that failed —
// deterministic regardless of which goroutine hit its error first. All
// indices run even when some fail (experiments are independent; partial
// results stay index-aligned).
func ForEachErr(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	ForEach(n, workers, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
