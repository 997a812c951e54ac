// Package runtime is the concurrency layer of FOSS: a bounded fan-out over
// independent jobs, an LRU plan cache keyed by query fingerprint, and a
// Runtime that arbitrates between the exclusive training path and the
// shared, cached serving path. It sits below core (which wires it to the
// learner) and above the model layers, and deliberately knows nothing about
// training itself — only how to run independent work in parallel and how to
// serve plans fast.
package runtime

import (
	"context"
	goruntime "runtime"
	"sync"
)

// Fan executes jobs 0..n-1 on width = min(n, GOMAXPROCS) goroutines and blocks
// until they drain; goroutine w runs jobs w, w+width, w+2·width, ... in that
// order, and a width of one runs every job inline on the caller. Each
// goroutine checks ctx before starting a job and stops once it is done, so a
// fan-out returns promptly on deadline (bounded by the longest job already
// running). Jobs that were skipped simply never ran: a non-nil return —
// ctx.Err() — means "results are partial".
func Fan(ctx context.Context, n int, fn func(job int)) error {
	width := min(n, goruntime.GOMAXPROCS(0))
	if width <= 1 {
		for j := 0; j < n; j++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(j)
		}
		return ctx.Err()
	}
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < n; j += width {
				if ctx.Err() != nil {
					return
				}
				fn(j)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}
