package surrogate

import (
	"encoding/json"
	"fmt"
	"math"
)

// Arm is one selectable strategy: a name plus a deterministic estimate
// of what fitting it on n samples costs. Costs are compared across
// arms, so any consistent unit works (the surrogate pool uses
// ≈seconds). The estimate must be a pure function of n — never a
// wall-clock measurement — so that selection stays a deterministic
// function of the observation history and checkpoint/resume replays
// bit-identically.
type Arm struct {
	Name string
	Cost func(n int) float64
}

// SelectorOptions tunes the budget-aware arm selection.
type SelectorOptions struct {
	// Explore is the UCB exploration coefficient (default 1).
	Explore float64
	// CostWeight scales the penalty applied to an arm's relative cost
	// (default 0.3). 0 keeps the default; negative disables the
	// penalty.
	CostWeight float64
}

func (o *SelectorOptions) defaults() {
	if o.Explore == 0 {
		o.Explore = 1
	}
	if o.CostWeight == 0 {
		o.CostWeight = 0.3
	} else if o.CostWeight < 0 {
		o.CostWeight = 0
	}
}

// Selector chooses between surrogate arms with a cost-penalized UCB
// rule: each arm's score is its average observed reward (incumbent
// improvement) plus an exploration bonus that shrinks as the remaining
// budget runs out, minus a penalty proportional to its deterministic
// fit cost at the current history size. Selection is fully
// deterministic — ties break toward the lower index — and the whole
// state round-trips through Snapshot/Restore for checkpointing.
type Selector struct {
	arms []Arm
	opts SelectorOptions

	pulls   []int
	rewards []float64 // summed per arm
	t       int       // total selections
}

// NewSelector returns a selector over the given arms.
func NewSelector(arms []Arm, opts SelectorOptions) *Selector {
	opts.defaults()
	return &Selector{
		arms:    arms,
		opts:    opts,
		pulls:   make([]int, len(arms)),
		rewards: make([]float64, len(arms)),
	}
}

// NumArms returns the arm count.
func (s *Selector) NumArms() int { return len(s.arms) }

// ArmName returns the name of arm i.
func (s *Selector) ArmName(i int) string { return s.arms[i].Name }

// Pulls returns how often arm i has been selected.
func (s *Selector) Pulls(i int) int { return s.pulls[i] }

// MeanReward returns arm i's average observed reward (0 before any
// pull).
func (s *Selector) MeanReward(i int) float64 {
	if s.pulls[i] == 0 {
		return 0
	}
	return s.rewards[i] / float64(s.pulls[i])
}

// Select picks the arm for a fit over n history samples.
// budgetFrac is the fraction of the evaluation budget still remaining
// in (0, 1]; pass 1 when the driver has no budget. Low remaining
// budget shrinks the exploration bonus, shifting the rule toward
// exploiting the best-known cheap arm. Select records the pull; the
// caller reports the outcome through Reward.
func (s *Selector) Select(n int, budgetFrac float64) int {
	if budgetFrac <= 0 || budgetFrac > 1 || math.IsNaN(budgetFrac) {
		budgetFrac = 1
	}
	s.t++
	// Relative cost in [0, 1] against the most expensive arm at this n.
	maxCost := 0.0
	for _, a := range s.arms {
		if c := a.Cost(n); c > maxCost {
			maxCost = c
		}
	}
	relCost := func(i int) float64 {
		if maxCost <= 0 {
			return 0
		}
		return s.arms[i].Cost(n) / maxCost
	}
	// Every arm is tried once before any UCB comparison, cheapest
	// first, so an expensive arm cannot eat the budget's head.
	best, bestCost := -1, 0.0
	for i := range s.arms {
		if s.pulls[i] != 0 {
			continue
		}
		if c := relCost(i); best == -1 || c < bestCost {
			best, bestCost = i, c
		}
	}
	if best >= 0 {
		s.pulls[best]++
		return best
	}
	bestScore := math.Inf(-1)
	for i := range s.arms {
		bonus := s.opts.Explore * budgetFrac * math.Sqrt(2*math.Log(float64(s.t))/float64(s.pulls[i]))
		score := s.MeanReward(i) + bonus - s.opts.CostWeight*relCost(i)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	s.pulls[best]++
	return best
}

// Reward records the observed reward of the most recent pull of arm i
// — the surrogate pool feeds the (non-negative, normalized) incumbent
// improvement its proposal achieved.
func (s *Selector) Reward(i int, reward float64) {
	if math.IsNaN(reward) || math.IsInf(reward, 0) {
		return
	}
	s.rewards[i] += reward
}

// selectorState is the JSON checkpoint payload.
type selectorState struct {
	Names   []string  `json:"names"`
	Pulls   []int     `json:"pulls"`
	Rewards []float64 `json:"rewards"`
	T       int       `json:"t"`
}

// Snapshot serializes the selector state for a session checkpoint.
func (s *Selector) Snapshot() ([]byte, error) {
	names := make([]string, len(s.arms))
	for i, a := range s.arms {
		names[i] = a.Name
	}
	return json.Marshal(selectorState{Names: names, Pulls: s.pulls, Rewards: s.rewards, T: s.t})
}

// Restore loads a Snapshot. The arm set (names, in order) must match
// the selector's construction, so a checkpoint can never be replayed
// against a different pool silently.
func (s *Selector) Restore(data []byte) error {
	var st selectorState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("bandit: selector state: %w", err)
	}
	if len(st.Names) != len(s.arms) || len(st.Pulls) != len(s.arms) || len(st.Rewards) != len(s.arms) {
		return fmt.Errorf("bandit: selector state has %d arms, selector has %d", len(st.Names), len(s.arms))
	}
	for i, a := range s.arms {
		if st.Names[i] != a.Name {
			return fmt.Errorf("bandit: selector state arm %d is %q, selector has %q", i, st.Names[i], a.Name)
		}
	}
	copy(s.pulls, st.Pulls)
	copy(s.rewards, st.Rewards)
	s.t = st.T
	return nil
}
