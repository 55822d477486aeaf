package main

import (
	"fmt"
	"sync"

	"gptunecrowd/internal/crowd"
)

// pointSet is the set of tuning points already evaluated for one task:
// what was seeded plus what the benchmark uploaded since.
type pointSet struct {
	mu  sync.Mutex
	pts map[[2]float64]struct{}
}

func newPointSet() *pointSet { return &pointSet{pts: make(map[[2]float64]struct{})} }

func (s *pointSet) add(x, y float64) {
	s.mu.Lock()
	s.pts[[2]float64{x, y}] = struct{}{}
	s.mu.Unlock()
}

func (s *pointSet) addSamples(evals []crowd.FuncEval) {
	for i := range evals {
		if x, y, ok := xy(evals[i].TuningParams); ok {
			s.add(x, y)
		}
	}
}

func (s *pointSet) has(x, y float64) bool {
	s.mu.Lock()
	_, ok := s.pts[[2]float64{x, y}]
	s.mu.Unlock()
	return ok
}

// checkPoint: a proposal lies inside the unit square and is not a point
// the history already holds.
func checkPoint(params map[string]interface{}, history *pointSet) error {
	x, y, ok := xy(params)
	if !ok {
		return fmt.Errorf("proposal %v has no numeric x and y", params)
	}
	if x < 0 || x > 1 || y < 0 || y > 1 {
		return fmt.Errorf("proposal (%v, %v) lies outside the space", x, y)
	}
	if history.has(x, y) {
		return fmt.Errorf("proposal (%v, %v) is already in the history", x, y)
	}
	return nil
}

// proposalsOf lists the points of a reply: the batch when one was asked
// for, else the single top-level proposal.
func proposalsOf(resp *crowd.SuggestResponse, batch int) []map[string]interface{} {
	if batch <= 1 {
		return []map[string]interface{}{resp.TuningParams}
	}
	out := make([]map[string]interface{}, len(resp.Proposals))
	for i, p := range resp.Proposals {
		out[i] = p.TuningParams
	}
	return out
}

// checkSuggest verifies one suggest reply: the right number of
// proposals, each a fresh in-space point, and — on workloads that keep
// the model warm — a reply served from a fitted model.
func checkSuggest(resp *crowd.SuggestResponse, batch int, wantModel bool, history *pointSet) error {
	props := proposalsOf(resp, batch)
	want := batch
	if want < 1 {
		want = 1
	}
	if len(props) != want {
		return fmt.Errorf("suggest returned %d proposals, want %d", len(props), want)
	}
	for _, p := range props {
		if err := checkPoint(p, history); err != nil {
			return err
		}
	}
	if wantModel && resp.ModelSamples <= 0 {
		return fmt.Errorf("suggest served model_samples=%d, want a fitted model", resp.ModelSamples)
	}
	return nil
}

// checkUpload: an accepted upload returns one distinct id per sample.
func checkUpload(ids []string, samples int) error {
	if len(ids) != samples {
		return fmt.Errorf("upload of %d samples returned %d ids", samples, len(ids))
	}
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		if id == "" || seen[id] {
			return fmt.Errorf("upload returned an empty or repeated id %q", id)
		}
		seen[id] = true
	}
	return nil
}

// checkCovers: a query result holds at least every acknowledged id.
func checkCovers(got []crowd.FuncEval, acked []string) error {
	have := make(map[string]bool, len(got))
	for i := range got {
		have[got[i].ID] = true
	}
	for _, id := range acked {
		if !have[id] {
			return fmt.Errorf("query misses acknowledged sample %s (%d returned)", id, len(got))
		}
	}
	return nil
}

// checkExact: a query result holds exactly want documents — no loss, no
// extra, no id twice.
func checkExact(got []crowd.FuncEval, want map[string]bool) error {
	seen := make(map[string]bool, len(got))
	for i := range got {
		id := got[i].ID
		if seen[id] {
			return fmt.Errorf("document %s returned twice", id)
		}
		seen[id] = true
		if !want[id] {
			return fmt.Errorf("unexpected document %s", id)
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("query returned %d documents, want %d", len(seen), len(want))
	}
	return nil
}
