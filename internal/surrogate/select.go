package surrogate

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
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

// Policy is the rule a Selector picks an arm by.
type Policy int

const (
	// UCB scores each arm by its average observed reward (incumbent
	// improvement) plus an exploration bonus that shrinks as the
	// remaining budget runs out, minus a penalty proportional to its
	// deterministic fit cost at the current history size. Ties break
	// toward the lower index; no randomness is drawn.
	UCB Policy = iota
	// Toggling cycles through the arms round-robin (Section V-E's
	// naive baseline).
	Toggling
	// PDF samples the arm with probability proportional to 1/(best
	// output the arm has produced) — Eq. 3 — with zero exploration.
	PDF
	// PDFExplore is the paper's Algorithm 1: with the exploration rate
	// of Eq. 4 draw an arm uniformly, otherwise by the PDF of Eq. 3.
	PDFExplore
)

func (p Policy) String() string {
	return [...]string{"cost-penalized UCB", "toggling", "PDF (Eq. 3)", "PDF (Eq. 3) + exploration rate (Eq. 4)"}[p]
}

const (
	ucbExplore    = 1.0 // UCB exploration coefficient
	ucbCostWeight = 0.3 // UCB penalty on an arm's relative cost
)

// credit is what an arm's pulls have earned it, whatever the policy
// reads: UCB the mean reward, the PDF policies the best output. It is
// also the arm's checkpoint record.
type credit struct {
	Pulls  int      `json:"pulls"`
	Reward float64  `json:"reward"`         // summed normalized incumbent improvement
	Best   *float64 `json:"best,omitempty"` // best objective a pull produced (nil = none yet)
}

// Selector chooses between arms by its Policy, keeping one credit
// record per arm. Selection is a deterministic function of the credit
// history and the RNG stream it is handed, and the whole state
// round-trips through Snapshot/Restore for checkpointing.
type Selector struct {
	arms   []Arm
	policy Policy
	credit []credit
	t      int // total selections (the sum of the arms' pulls)
}

// NewSelector returns a selector over the given arms.
func NewSelector(arms []Arm, policy Policy) *Selector {
	return &Selector{arms: arms, policy: policy, credit: make([]credit, len(arms))}
}

// Pulls returns how often arm i has been selected.
func (s *Selector) Pulls(i int) int { return s.credit[i].Pulls }

// MeanReward returns arm i's average observed reward (0 before any
// pull).
func (s *Selector) MeanReward(i int) float64 {
	if s.credit[i].Pulls == 0 {
		return 0
	}
	return s.credit[i].Reward / float64(s.credit[i].Pulls)
}

// Draw is what one selection may consult.
type Draw struct {
	// N is the number of history rows the arm will be fitted on: UCB's
	// cost argument and Eq. 4's sample count.
	N int
	// BudgetFrac is the fraction of the evaluation budget still
	// remaining in (0, 1] (1 when the driver has no budget). Low
	// remaining budget shrinks UCB's exploration bonus.
	BudgetFrac float64
	// Dim is the number of tuning parameters (Eq. 4).
	Dim int
	// Rng is drawn from by the PDF policies only.
	Rng *rand.Rand
}

// Select picks the arm for the next fit and records the pull; the
// caller reports the outcome through Credit.
func (s *Selector) Select(d Draw) int {
	s.t++
	var arm int
	switch n := len(s.arms); s.policy {
	case Toggling:
		arm = (s.t - 1) % n
	case PDF:
		arm = s.pickByPDF(d.Rng)
	case PDFExplore:
		if d.Rng.Float64() < explorationRate(n, d.Dim, d.N) {
			arm = d.Rng.Intn(n)
		} else {
			arm = s.pickByPDF(d.Rng)
		}
	default:
		arm = s.pickByUCB(d.N, d.BudgetFrac)
	}
	s.credit[arm].Pulls++
	return arm
}

// explorationRate implements Eq. 4: (|T|·p/n) / (1 + |T|·p/n) for a
// pool of |T| arms, p tuning parameters and n samples so far.
func explorationRate(poolSize, nParams, nSamples int) float64 {
	if nSamples <= 0 {
		return 1
	}
	v := float64(poolSize) * float64(nParams) / float64(nSamples)
	return v / (1 + v)
}

// pickByPDF samples the arm from Eq. 3: probability proportional to
// 1/best_output. Arms without a credited success yet share the best
// observed value (optimistic default); non-positive objectives are
// shifted to keep the PDF well defined.
func (s *Selector) pickByPDF(rng *rand.Rand) int {
	n := len(s.arms)
	globalBest := math.Inf(1)
	for _, c := range s.credit {
		if c.Best != nil {
			globalBest = math.Min(globalBest, *c.Best)
		}
	}
	if math.IsInf(globalBest, 1) {
		return rng.Intn(n)
	}
	shift := 0.0
	if globalBest <= 0 {
		shift = -globalBest + 1e-9
	}
	vals := make([]float64, n)
	var sum float64
	for i, c := range s.credit {
		v := globalBest
		if c.Best != nil {
			v = *c.Best
		}
		vals[i] = 1 / (v + shift)
		sum += vals[i]
	}
	r := rng.Float64() * sum
	for i, v := range vals {
		r -= v
		if r <= 0 {
			return i
		}
	}
	return n - 1
}

// pickByUCB is the cost-penalized UCB rule over n history samples.
func (s *Selector) pickByUCB(n int, budgetFrac float64) int {
	if budgetFrac <= 0 || budgetFrac > 1 || math.IsNaN(budgetFrac) {
		budgetFrac = 1
	}
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
		if s.credit[i].Pulls != 0 {
			continue
		}
		if c := relCost(i); best == -1 || c < bestCost {
			best, bestCost = i, c
		}
	}
	if best >= 0 {
		return best
	}
	bestScore := math.Inf(-1)
	for i := range s.arms {
		bonus := ucbExplore * budgetFrac * math.Sqrt(2*math.Log(float64(s.t))/float64(s.credit[i].Pulls))
		score := s.MeanReward(i) + bonus - ucbCostWeight*relCost(i)
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// Credit records the outcome of the most recent pull of arm i: the
// (non-negative, normalized) incumbent improvement its proposal
// achieved, and the objective y it evaluated to (+Inf for a failed
// evaluation). Non-finite values are ignored.
func (s *Selector) Credit(i int, reward, y float64) {
	c := &s.credit[i]
	if !math.IsNaN(reward) && !math.IsInf(reward, 0) {
		c.Reward += reward
	}
	if !math.IsNaN(y) && !math.IsInf(y, 0) && (c.Best == nil || y < *c.Best) {
		c.Best = &y
	}
}

// selectorState is the JSON checkpoint payload.
type selectorState struct {
	Names  []string `json:"names"`
	Credit []credit `json:"credit"`
}

// Snapshot serializes the selector state for a session checkpoint.
func (s *Selector) Snapshot() ([]byte, error) {
	st := selectorState{Credit: s.credit}
	for _, a := range s.arms {
		st.Names = append(st.Names, a.Name)
	}
	return json.Marshal(st)
}

// Restore loads a Snapshot. The arm set (names, in order) must match
// the selector's construction, so a checkpoint can never be replayed
// against a different pool silently; credit a selector could not have
// recorded is rejected, since checkpoints arrive through the crowd task
// pool and are untrusted.
func (s *Selector) Restore(data []byte) error {
	var st selectorState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("surrogate: selector state: %w", err)
	}
	if len(st.Names) != len(s.arms) || len(st.Credit) != len(s.arms) {
		return fmt.Errorf("surrogate: selector state has %d names and %d credit records, selector has %d arms",
			len(st.Names), len(st.Credit), len(s.arms))
	}
	total := 0
	for i, a := range s.arms {
		c := st.Credit[i]
		if st.Names[i] != a.Name {
			return fmt.Errorf("surrogate: selector state arm %d is %q, selector has %q", i, st.Names[i], a.Name)
		}
		if c.Pulls < 0 || math.IsNaN(c.Reward) || math.IsInf(c.Reward, 0) {
			return fmt.Errorf("surrogate: selector state arm %q has %d pulls, reward %v", a.Name, c.Pulls, c.Reward)
		}
		total += c.Pulls
	}
	s.credit, s.t = st.Credit, total
	return nil
}
