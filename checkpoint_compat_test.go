package gptunecrowd

import (
	"context"
	"encoding/json"
	"math"
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
			if err := s.StepContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			continue
		}
		pending := s.PendingProposals()
		if len(pending) == 0 {
			var err error
			if pending, err = s.ProposeBatchContext(context.Background(), c.batch); err != nil {
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

// parentTailTolerance bounds how far, in unit-cube coordinates, a
// proposal after the fixed prefix may sit from the parent's. The
// parent's fixtures predate the forward-only predictive variance and
// the row-oriented Cholesky inverse, which round differently, so the
// model-driven tail reaches the same points to within about 1e-6; a tail
// sample that moves to a different point lands orders of magnitude
// beyond this bound.
const parentTailTolerance = 1e-4

// TestResumeParentCheckpoints resumes NoTLA checkpoints written before
// NoTLA became a row of the tuner table — when they carried no
// proposer_state. The fixtures under testdata/parent_pr27 come from
// that code driving parentCheckpointCases: <case>.checkpoint.json after
// stopAt operations, <case>.history.json at the end of the budget. The
// samples the checkpoint fixes (its history and its pending proposals)
// must match the parent's bit for bit; the tail must stay within
// parentTailTolerance of the parent's; and a run of the same case that
// this code checkpoints and resumes must match its uninterrupted run bit
// for bit.
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
			fixed := s.History().Len() + s.InFlight()
			c.drive(t, p, s, -1)
			h := s.History()
			if h.Len() != len(want) {
				t.Fatalf("%d samples, the parent's run has %d", h.Len(), len(want))
			}
			var maxU, maxY float64
			for i, w := range want {
				got := h.Samples[i]
				if i < fixed {
					if got.Y != w.Y || got.Failed != w.Failed || !slices.Equal(got.ParamU, w.U) {
						t.Fatalf("fixed sample %d is %v → %v, the parent's is %v → %v", i, got.ParamU, got.Y, w.U, w.Y)
					}
					continue
				}
				if got.Failed != w.Failed || len(got.ParamU) != len(w.U) {
					t.Fatalf("sample %d is %v (failed %v), the parent's is %v (failed %v)", i, got.ParamU, got.Failed, w.U, w.Failed)
				}
				for d, u := range w.U {
					maxU = math.Max(maxU, math.Abs(got.ParamU[d]-u))
				}
				maxY = math.Max(maxY, math.Abs(got.Y-w.Y))
				if maxU > parentTailTolerance {
					t.Fatalf("sample %d is %v, the parent's is %v: farther than %g", i, got.ParamU, w.U, parentTailTolerance)
				}
			}
			t.Logf("%d fixed samples exact; tail max |Δu| = %.3g, max |Δy| = %.3g", fixed, maxU, maxY)

			// At this commit, a run checkpointed after stopAt operations and
			// resumed matches the uninterrupted run bit for bit.
			run := func(stopAt int) *History {
				s, err := NewTuningSession(p, nil, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				c.drive(t, p, s, stopAt)
				if stopAt >= 0 {
					cp, err := s.Checkpoint()
					if err != nil {
						t.Fatal(err)
					}
					if s, err = ResumeTuningSession(p, nil, c.opts, cp); err != nil {
						t.Fatal(err)
					}
					c.drive(t, p, s, -1)
				}
				return s.History()
			}
			resumed, whole := run(c.stopAt), run(-1)
			if resumed.Len() != whole.Len() {
				t.Fatalf("resumed run has %d samples, the uninterrupted one %d", resumed.Len(), whole.Len())
			}
			for i, r := range resumed.Samples {
				u := whole.Samples[i]
				if r.Y != u.Y || r.Failed != u.Failed || !slices.Equal(r.ParamU, u.ParamU) {
					t.Fatalf("sample %d: resumed %v → %v, uninterrupted %v → %v", i, r.ParamU, r.Y, u.ParamU, u.Y)
				}
			}
		})
	}
}
