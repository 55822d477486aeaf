package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		n := 257
		counts := make([]int32, n)
		For(n, workers, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, c)
			}
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(0, 4, func(int) { called = true })
	For(-3, 4, func(int) { called = true })
	if called {
		t.Fatal("For called fn for non-positive n")
	}
}

func TestResolve(t *testing.T) {
	if got := resolve(7); got != 7 {
		t.Fatalf("resolve(7) = %d", got)
	}
	if got := resolve(0); got != DefaultWorkers() {
		t.Fatalf("resolve(0) = %d, want default %d", got, DefaultWorkers())
	}
	if got := resolve(-1); got != DefaultWorkers() {
		t.Fatalf("resolve(-1) = %d, want default %d", got, DefaultWorkers())
	}
}

func TestEnvWorkersOverride(t *testing.T) {
	t.Setenv(EnvWorkers, "3")
	if got := DefaultWorkers(); got != 3 {
		t.Fatalf("DefaultWorkers with %s=3 = %d", EnvWorkers, got)
	}
	t.Setenv(EnvWorkers, "not-a-number")
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("invalid %s should fall back to GOMAXPROCS, got %d", EnvWorkers, got)
	}
	t.Setenv(EnvWorkers, "0")
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("non-positive %s should fall back to GOMAXPROCS, got %d", EnvWorkers, got)
	}
}
