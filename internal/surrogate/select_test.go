package surrogate

import (
	"math"
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
	s := NewSelector(threeArms(), SelectorOptions{})
	order := []int{s.Select(10, 1), s.Select(10, 1), s.Select(10, 1)}
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("warmup order = %v, want cheapest first [0 1 2]", order)
	}
}

func TestSelectorConvergesToRewardingArm(t *testing.T) {
	s := NewSelector(threeArms(), SelectorOptions{})
	counts := make([]int, 3)
	for i := 0; i < 200; i++ {
		a := s.Select(50, 1)
		counts[a]++
		// Arm 1 is the only one that ever improves the incumbent.
		if a == 1 {
			s.Reward(a, 1)
		} else {
			s.Reward(a, 0)
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
	s := NewSelector(threeArms(), SelectorOptions{CostWeight: 0.5})
	counts := make([]int, 3)
	for i := 0; i < 300; i++ {
		a := s.Select(1000, 1)
		counts[a]++
		s.Reward(a, 0.5)
	}
	if counts[2] >= counts[0] {
		t.Fatalf("expensive arm pulled %d >= cheap %d", counts[2], counts[0])
	}
}

func TestSelectorBudgetFractionShrinksExploration(t *testing.T) {
	// With a depleted budget the selector should exploit: after arm 0
	// proves best, a low budgetFrac must keep choosing it.
	s := NewSelector(threeArms(), SelectorOptions{})
	for i := 0; i < 30; i++ {
		a := s.Select(10, 1)
		if a == 0 {
			s.Reward(a, 1)
		} else {
			s.Reward(a, 0)
		}
	}
	for i := 0; i < 10; i++ {
		if a := s.Select(10, 0.05); a != 0 {
			t.Fatalf("depleted-budget pull %d chose arm %d, want 0", i, a)
		}
		s.Reward(0, 1)
	}
}

func TestSelectorDeterministicReplay(t *testing.T) {
	// Same reward sequence → same selection sequence, and a
	// Snapshot/Restore mid-stream continues identically.
	run := func(s *Selector, pulls int) []int {
		var out []int
		for i := 0; i < pulls; i++ {
			a := s.Select(20+i, 1)
			out = append(out, a)
			s.Reward(a, float64(a%2)) // deterministic reward script
		}
		return out
	}
	a := NewSelector(threeArms(), SelectorOptions{})
	b := NewSelector(threeArms(), SelectorOptions{})
	seqA := run(a, 40)
	seqB := run(b, 40)
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("replay diverged at pull %d: %d vs %d", i, seqA[i], seqB[i])
		}
	}

	c := NewSelector(threeArms(), SelectorOptions{})
	run(c, 15)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	d := NewSelector(threeArms(), SelectorOptions{})
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
	s := NewSelector(threeArms(), SelectorOptions{})
	snap, _ := s.Snapshot()
	other := NewSelector(threeArms()[:2], SelectorOptions{})
	if err := other.Restore(snap); err == nil {
		t.Fatal("arm-count mismatch should fail")
	}
	renamed := threeArms()
	renamed[1].Name = "different"
	r := NewSelector(renamed, SelectorOptions{})
	if err := r.Restore(snap); err == nil {
		t.Fatal("arm-name mismatch should fail")
	}
	if err := s.Restore([]byte("{")); err == nil {
		t.Fatal("corrupt state should fail")
	}
}

func TestSelectorIgnoresNonFiniteRewards(t *testing.T) {
	s := NewSelector(threeArms(), SelectorOptions{})
	a := s.Select(5, 1)
	s.Reward(a, math.NaN())
	if got := s.MeanReward(a); got != 0 {
		t.Fatalf("NaN reward leaked into mean: %v", got)
	}
}
