package surrogate

import (
	"math"
	"math/rand"
	"testing"
)

func threeArms() []Arm {
	return []Arm{
		{Name: "cheap", Cost: func(n int) float64 { return 0.001 * float64(n) }},
		{Name: "mid", Cost: func(n int) float64 { return 0.01 * float64(n) }},
		{Name: "pricey", Cost: func(n int) float64 { return 1 * float64(n) }},
	}
}

func TestSelectorTriesCheapestFirst(t *testing.T) {
	s := NewSelector(threeArms(), UCB)
	order := []int{s.Select(Draw{N: 10, BudgetFrac: 1}), s.Select(Draw{N: 10, BudgetFrac: 1}), s.Select(Draw{N: 10, BudgetFrac: 1})}
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("warmup order = %v, want cheapest first [0 1 2]", order)
	}
}

func TestSelectorConvergesToRewardingArm(t *testing.T) {
	s := NewSelector(threeArms(), UCB)
	counts := make([]int, 3)
	for i := 0; i < 200; i++ {
		a := s.Select(Draw{N: 50, BudgetFrac: 1})
		counts[a]++
		// Arm 1 is the only one that ever improves the incumbent.
		if a == 1 {
			s.Credit(a, 1, math.Inf(1))
		} else {
			s.Credit(a, 0, math.Inf(1))
		}
	}
	if counts[1] <= counts[0] || counts[1] <= counts[2] {
		t.Fatalf("rewarding arm not favored: counts = %v", counts)
	}
	if s.MeanReward(1) != 1 {
		t.Fatalf("mean reward = %v", s.MeanReward(1))
	}
}

func TestSelectorCostPenaltySplitsTies(t *testing.T) {
	// Equal rewards everywhere: the expensive arm must be pulled least.
	s := NewSelector(threeArms(), UCB)
	counts := make([]int, 3)
	for i := 0; i < 300; i++ {
		a := s.Select(Draw{N: 1000, BudgetFrac: 1})
		counts[a]++
		s.Credit(a, 0.5, math.Inf(1))
	}
	if counts[2] >= counts[0] {
		t.Fatalf("expensive arm pulled %d >= cheap %d", counts[2], counts[0])
	}
}

func TestSelectorBudgetFractionShrinksExploration(t *testing.T) {
	// With a depleted budget the selector should exploit: after arm 0
	// proves best, a low budgetFrac must keep choosing it.
	s := NewSelector(threeArms(), UCB)
	for i := 0; i < 30; i++ {
		a := s.Select(Draw{N: 10, BudgetFrac: 1})
		if a == 0 {
			s.Credit(a, 1, math.Inf(1))
		} else {
			s.Credit(a, 0, math.Inf(1))
		}
	}
	for i := 0; i < 10; i++ {
		if a := s.Select(Draw{N: 10, BudgetFrac: 0.05}); a != 0 {
			t.Fatalf("depleted-budget pull %d chose arm %d, want 0", i, a)
		}
		s.Credit(0, 1, math.Inf(1))
	}
}

func TestSelectorDeterministicReplay(t *testing.T) {
	// Same reward sequence → same selection sequence, and a
	// Snapshot/Restore mid-stream continues identically.
	run := func(s *Selector, pulls int) []int {
		var out []int
		for i := 0; i < pulls; i++ {
			a := s.Select(Draw{N: 20 + i, BudgetFrac: 1})
			out = append(out, a)
			s.Credit(a, float64(a%2), math.Inf(1)) // deterministic reward script
		}
		return out
	}
	a := NewSelector(threeArms(), UCB)
	b := NewSelector(threeArms(), UCB)
	seqA := run(a, 40)
	seqB := run(b, 40)
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("replay diverged at pull %d: %d vs %d", i, seqA[i], seqB[i])
		}
	}

	c := NewSelector(threeArms(), UCB)
	run(c, 15)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d := NewSelector(threeArms(), UCB)
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	tailC := run(c, 25)
	tailD := run(d, 25)
	for i := range tailC {
		if tailC[i] != tailD[i] {
			t.Fatalf("restored selector diverged at pull %d", i)
		}
	}
}

func TestSelectorRestoreRejectsMismatchedArms(t *testing.T) {
	s := NewSelector(threeArms(), UCB)
	snap, _ := s.Snapshot()
	other := NewSelector(threeArms()[:2], UCB)
	if err := other.Restore(snap); err == nil {
		t.Fatal("arm-count mismatch should fail")
	}
	renamed := threeArms()
	renamed[1].Name = "different"
	r := NewSelector(renamed, UCB)
	if err := r.Restore(snap); err == nil {
		t.Fatal("arm-name mismatch should fail")
	}
	if err := s.Restore([]byte("{")); err == nil {
		t.Fatal("corrupt state should fail")
	}
}

func TestSelectorIgnoresNonFiniteRewards(t *testing.T) {
	s := NewSelector(threeArms(), UCB)
	a := s.Select(Draw{N: 5, BudgetFrac: 1})
	s.Credit(a, math.NaN(), math.Inf(1))
	if got := s.MeanReward(a); got != 0 {
		t.Fatalf("NaN reward leaked into mean: %v", got)
	}
}

func TestExplorationRateEq4(t *testing.T) {
	// Eq. 4: rate = (|T|·p/n) / (1 + |T|·p/n).
	if r := explorationRate(3, 2, 6); math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("rate = %v, want 0.5", r)
	}
	if r := explorationRate(3, 2, 0); r != 1 {
		t.Fatalf("rate with no samples = %v", r)
	}
	// Monotone decreasing in n.
	if explorationRate(3, 5, 10) <= explorationRate(3, 5, 100) {
		t.Fatal("rate should fall as samples accumulate")
	}
}

func TestSelectorTogglingCycles(t *testing.T) {
	s := NewSelector(threeArms(), Toggling)
	for i := 0; i < 7; i++ {
		if a := s.Select(Draw{N: i}); a != i%3 {
			t.Fatalf("pull %d chose arm %d, want %d", i, a, i%3)
		}
	}
}

// pdfShares draws from a PDF selector credited with the given best
// outputs (+Inf = arm never credited) and returns each arm's share.
func pdfShares(policy Policy, best []float64, d Draw) []float64 {
	const draws = 30000
	d.Rng = rand.New(rand.NewSource(1))
	counts := make([]float64, len(best))
	for i := 0; i < draws; i++ {
		s := NewSelector(threeArms(), policy)
		for a, y := range best {
			s.Credit(a, 0, y)
		}
		counts[s.Select(d)] += 1.0 / draws
	}
	return counts
}

func TestSelectorPDFEq3(t *testing.T) {
	near := func(got, want []float64) bool {
		for i := range want {
			if math.Abs(got[i]-want[i]) > 0.015 {
				return false
			}
		}
		return true
	}
	inf := math.Inf(1)
	// Probability ∝ 1/best output: 1, 2, 4 → 4/7, 2/7, 1/7.
	if got := pdfShares(PDF, []float64{1, 2, 4}, Draw{}); !near(got, []float64{4. / 7, 2. / 7, 1. / 7}) {
		t.Fatalf("shares %v, want ∝ 1/best", got)
	}
	// An uncredited arm is given the best observed output.
	if got := pdfShares(PDF, []float64{1, inf, 2}, Draw{}); !near(got, []float64{0.4, 0.4, 0.2}) {
		t.Fatalf("shares %v, want the uncredited arm to share the best", got)
	}
	// Nothing credited yet: uniform.
	if got := pdfShares(PDF, []float64{inf, inf, inf}, Draw{}); !near(got, []float64{1. / 3, 1. / 3, 1. / 3}) {
		t.Fatalf("shares %v, want uniform", got)
	}
	// Non-positive objectives are shifted so the best arm still leads
	// and every probability stays positive and finite.
	got := pdfShares(PDF, []float64{-3, -1, 0}, Draw{})
	if !(got[0] > 0.99 && got[0] <= 1) {
		t.Fatalf("shares %v, want the best (shifted to ≈0) arm to dominate", got)
	}
	// Eq. 4 at rate 1 (no samples yet) explores uniformly whatever the
	// credit; at a large n the PDF takes over.
	if got := pdfShares(PDFExplore, []float64{1, 100, 100}, Draw{N: 0, Dim: 2}); !near(got, []float64{1. / 3, 1. / 3, 1. / 3}) {
		t.Fatalf("shares %v, want uniform exploration at n=0", got)
	}
	if got := pdfShares(PDFExplore, []float64{1, 100, 100}, Draw{N: 1 << 30, Dim: 2}); got[0] < 0.95 {
		t.Fatalf("shares %v, want the PDF to dominate at large n", got)
	}
}

func TestSelectorRestoreRejectsForgedCredit(t *testing.T) {
	s := NewSelector(threeArms(), PDF)
	for _, bad := range []string{
		`{"names":["cheap","mid","pricey"],"pulls":[1,2,3],"rewards":[0,0,0],"t":6}`, // PR 15 format
		`{"names":["cheap","mid","pricey"],"credit":[{"pulls":1},{"pulls":-2},{"pulls":3}]}`,
		`{"names":["cheap","mid","pricey"],"credit":[{"pulls":1},{"pulls":2}]}`,
	} {
		if err := s.Restore([]byte(bad)); err == nil {
			t.Fatalf("forged state %s accepted", bad)
		}
	}
}
