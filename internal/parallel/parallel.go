// Package parallel provides the worker-pool primitives behind the
// numeric engine's multicore paths: kernel-matrix assembly, multi-start
// hyperparameter fits, acquisition candidate scoring and Saltelli
// sensitivity fan-out.
//
// The package is dependency-free and deliberately tiny. Its contract is
// what makes parallel results reproducible: For guarantees that every
// index is executed exactly once, so as long as callers write only to
// index-disjoint state and perform any floating-point reductions in a
// fixed index order afterwards, results are bit-identical for every
// worker count (including 1).
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// EnvWorkers is the environment variable that overrides the default
// worker count for every parallel numeric path.
const EnvWorkers = "GPTUNE_WORKERS"

// DefaultWorkers returns the process-wide default worker count:
// GPTUNE_WORKERS when set to a positive integer, else GOMAXPROCS.
func DefaultWorkers() int {
	if s := os.Getenv(EnvWorkers); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// resolve maps a worker argument to an effective count: values <= 0
// mean "use the default", anything else is taken as-is.
func resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	return DefaultWorkers()
}

// For executes fn(i) for every i in [0, n) using the given number of
// workers (<= 0 means DefaultWorkers). Indices are handed out through an
// atomic counter, so load imbalance across indices is absorbed
// dynamically; each index runs exactly once. fn must only write to
// index-disjoint state.
func For(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
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
