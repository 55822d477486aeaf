package gptunecrowd

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// checkpointCase is one NoTLA run of sessionProblem: its options, how
// it is driven, and after how many operations it was checkpointed.
type checkpointCase struct {
	name string
	opts TuneOptions
	// batch 0 drives the run with Step. A batch of k asks for k proposals
	// whenever none is pending and reports the newest pending one first,
	// so results wait in the ledger behind earlier unreported ones.
	batch int
	// stopAt is the number of steps or reports before the checkpoint.
	stopAt int
}

var parentCheckpointCases = []checkpointCase{
	{name: "after_warmup", opts: TuneOptions{Budget: 10, Seed: 21}, stopAt: 4},
	{name: "mid_batch", opts: TuneOptions{Budget: 12, Seed: 22}, batch: 3, stopAt: 4},
}

// drive makes up to ops steps or reports (all that remain when ops < 0).
func (c checkpointCase) drive(t *testing.T, p *Problem, s *TuningSession, ops int) {
	t.Helper()
	for ; ops != 0 && !s.Done(); ops-- {
		if c.batch == 0 {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		pending := s.PendingProposals()
		if len(pending) == 0 {
			var err error
			if pending, err = s.ProposeBatch(c.batch); err != nil {
				t.Fatal(err)
			}
		}
		last := pending[len(pending)-1]
		y, evalErr := p.Evaluator.Evaluate(nil, last.Params)
		if err := s.ObserveContext(context.Background(), last.ID, y, evalErr); err != nil {
			t.Fatal(err)
		}
	}
}

// checkpointSample is one history entry of a fixture.
type checkpointSample struct {
	U      []float64 `json:"u"`
	Y      float64   `json:"y"`
	Failed bool      `json:"failed,omitempty"`
}

// TestResumeParentCheckpoints resumes NoTLA checkpoints written before
// NoTLA became a row of the tuner table — when they carried no
// proposer_state — and requires each run to continue sample for sample
// into the history the same code wrote for the uninterrupted run. The
// fixtures under testdata/parent_pr27 come from that code driving
// parentCheckpointCases: <case>.checkpoint.json after stopAt
// operations, <case>.history.json at the end of the budget.
func TestResumeParentCheckpoints(t *testing.T) {
	for _, c := range parentCheckpointCases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "parent_pr27")
			cp, err := os.ReadFile(filepath.Join(dir, c.name+".checkpoint.json"))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(filepath.Join(dir, c.name+".history.json"))
			if err != nil {
				t.Fatal(err)
			}
			var want []checkpointSample
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			p := sessionProblem(t)
			s, err := ResumeTuningSession(p, nil, c.opts, cp)
			if err != nil {
				t.Fatal(err)
			}
			if c.batch > 0 && s.InFlight() == 0 {
				t.Fatal("the mid-batch checkpoint resumed with an empty ledger")
			}
			c.drive(t, p, s, -1)
			h := s.History()
			if h.Len() != len(want) {
				t.Fatalf("%d samples, the parent's run has %d", h.Len(), len(want))
			}
			for i, w := range want {
				if got := h.Samples[i]; got.Y != w.Y || got.Failed != w.Failed || !slices.Equal(got.ParamU, w.U) {
					t.Fatalf("sample %d is %v → %v, the parent's is %v → %v", i, got.ParamU, got.Y, w.U, w.Y)
				}
			}
		})
	}
}
