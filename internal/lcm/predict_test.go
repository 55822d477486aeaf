package lcm

import (
	"math"
	"sync"
	"testing"

	"gptunecrowd/internal/linalg"
)

// twoSolveVariance is task t's predictive variance in its two-solve
// form, prior − k·K⁻¹k, before the clamp.
func (m *Model) twoSolveVariance(t int, x []float64) float64 {
	ks := make([]float64, len(m.x))
	prior := 0.0
	for q, kern := range m.kerns {
		for b := range ks {
			ks[b] += m.bAt(q, t, m.task[b]) * kern.Eval(x, m.x[b], m.hyper[q])
		}
		prior += m.bAt(q, t, t)
	}
	return prior - linalg.Dot(ks, m.chol.SolveVec(ks))
}

// Predict computes the variance as prior − ‖L⁻¹k‖², one forward
// substitution through pooled scratch. It must match the two-solve form
// to 1e-10 relative to the prior, and a warm Predict must not allocate.
func TestPredictVarianceMatchesTwoSolveForm(t *testing.T) {
	X, Y := twoTaskFixture(24, 8, 5)
	m, err := Fit(X, Y, Options{Seed: 2, Restarts: 1, MaxIter: 20})
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < m.NumTasks(); task++ {
		var prior float64
		for q := 0; q < m.q; q++ {
			prior += m.bAt(q, task, task)
		}
		for i := 0; i <= 40; i++ {
			x := []float64{float64(i) / 40}
			want := math.Max(m.twoSolveVariance(task, x), 1e-12)
			_, std, err := m.Predict(task, x)
			if err != nil {
				t.Fatal(err)
			}
			got := (std / m.stdY[task]) * (std / m.stdY[task])
			if math.Abs(got-want) > 1e-10*prior {
				t.Fatalf("task %d x=%v: variance %v, two-solve form %v", task, x, got, want)
			}
		}
	}
	x := []float64{0.37}
	if allocs := testing.AllocsPerRun(100, func() { m.Predict(1, x) }); allocs != 0 {
		t.Fatalf("warm Predict allocates %v times", allocs)
	}
}

// Predict shares its pooled scratch across goroutines; concurrent
// callers must each get the serial answer (the race detector patrols
// the pool).
func TestPredictConcurrentSafe(t *testing.T) {
	X, Y := twoTaskFixture(16, 6, 9)
	m, err := Fit(X, Y, Options{Seed: 4, Restarts: 1, MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.42}
	wantM, wantS, _ := m.Predict(1, x)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if mu, sd, _ := m.Predict(1, x); mu != wantM || sd != wantS {
					t.Error("concurrent Predict diverged")
					return
				}
				m.Predict(0, []float64{0.9})
			}
		}()
	}
	wg.Wait()
}
