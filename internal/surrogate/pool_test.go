package surrogate

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gptunecrowd/internal/apps/synth"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/tla"
)

func mustProposer(t *testing.T, name string, sources []*tla.Source) core.Proposer {
	t.Helper()
	prop, err := NewProposer(name, PoolConfig{Config: Config{Sources: sources, MaxSourceSamples: 12}})
	if err != nil {
		t.Fatal(err)
	}
	return prop
}

// forEachTuner runs fn as a subtest for every name NewProposer accepts
// — Algorithms() ∪ Kinds() — that keep admits, over two sources larger
// than the LCM's sample cap (so a drawn subsample is state to carry).
func forEachTuner(t *testing.T, keep func(r Row) bool, fn func(t *testing.T, name string, mk func() core.Proposer)) {
	sources := []*tla.Source{demoSource(t, 0.8, 30, 12), demoSource(t, 1.2, 30, 13)}
	names := append(Algorithms(), Kinds()...)
	if len(names) != len(table) {
		t.Fatalf("Algorithms() ∪ Kinds() has %d names, the table %d rows", len(names), len(table))
	}
	for i, name := range names {
		if table[i].Name != name {
			t.Fatalf("row %d is %q, listed as %q", i, table[i].Name, name)
		}
		if !keep(table[i]) {
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fn(t, name, func() core.Proposer { return mustProposer(t, name, sources) })
		})
	}
}

func anyRow(Row) bool { return true }

func sameHistory(t *testing.T, label string, want, got *core.History) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d samples, want %d", label, got.Len(), want.Len())
	}
	for i, a := range want.Samples {
		if b := got.Samples[i]; a.Y != b.Y || !slices.Equal(a.ParamU, b.ParamU) {
			t.Fatalf("%s: sample %d is %v → %v, want %v → %v", label, i, b.ParamU, b.Y, a.ParamU, a.Y)
		}
	}
}

// tunerContract is what every row owes: it runs its budget and beats
// the mean random draw, repeats bit for bit at a seed, and a mid-run
// checkpoint resumes into the run an uninterrupted session makes.
func tunerContract(t *testing.T, mk func() core.Proposer, split int) {
	p, task, _ := demoSetup(t, 1, 1)
	rng, meanRandom := rand.New(rand.NewSource(3)), 0.0
	for i := 0; i < 200; i++ {
		meanRandom += synth.Demo(1.0, rng.Float64()) / 200
	}
	opts := core.SessionOptions{Budget: 8, Seed: 13, Search: core.SearchOptions{Candidates: 64, DEGens: 10}}
	run := func() *core.History {
		h, err := core.RunLoop(p, task, mk(), opts)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	full := run()
	if full.Len() != opts.Budget {
		t.Fatalf("consumed %d of %d budget", full.Len(), opts.Budget)
	}
	if best := bestY(t, full); best > meanRandom {
		t.Fatalf("best %v is worse than the mean random draw %v", best, meanRandom)
	}
	sameHistory(t, "same seed", full, run())

	half, err := core.NewSession(p, task, mk(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < split; i++ {
		if err := half.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := half.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := core.ResumeSession(p, task, mk(), opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(); err != nil {
		t.Fatal(err)
	}
	sameHistory(t, fmt.Sprintf("resumed at %d", split), full, resumed.History())
}

// TestFixedCheckpointBitIdentical holds every one-model row — the
// surrogate kinds and the five Table I models — to the tuner contract.
func TestFixedCheckpointBitIdentical(t *testing.T) {
	forEachTuner(t, func(r Row) bool { return len(r.Arms) <= 1 }, func(t *testing.T, _ string, mk func() core.Proposer) {
		tunerContract(t, mk, 4)
	})
}

// TestPoolCheckpointBitIdentical holds the selecting rows — "auto" and
// the three ensembles, whose credit rides the checkpoint — to it.
func TestPoolCheckpointBitIdentical(t *testing.T) {
	forEachTuner(t, func(r Row) bool { return len(r.Arms) > 1 }, func(t *testing.T, _ string, mk func() core.Proposer) {
		tunerContract(t, mk, 5)
	})
}

func TestNewProposerRouting(t *testing.T) {
	forEachTuner(t, anyRow, func(t *testing.T, name string, mk func() core.Proposer) {
		want := name
		if slices.Contains(Kinds(), name) {
			want = "Surrogate(" + name + ")"
		}
		if got := mk().Name(); got != want {
			t.Fatalf("tuner %q is named %q, want %q", name, got, want)
		}
		_, err := NewProposer(name, PoolConfig{})
		if sourceFed := name != "NoTLA" && !slices.Contains([]string{KindAuto, KindGP, KindCopula, KindSGP}, name); sourceFed != (err != nil) {
			t.Fatalf("tuner %q without sources: %v", name, err)
		}
	})
	_, _, sources := demoSetup(t, 5, 1)
	if prop, err := NewProposer("", PoolConfig{}); err != nil || prop.Name() != "NoTLA" {
		t.Fatalf("empty name without sources → %v, %v", prop, err)
	}
	if prop := mustProposer(t, "", sources); prop.Name() != "Ensemble(proposed)" {
		t.Fatalf("empty name with sources → %s", prop.Name())
	}
	if _, err := NewProposer("bogus", PoolConfig{}); err == nil {
		t.Fatal("bogus name should fail")
	}
}

func TestPoolArmsAndMetrics(t *testing.T) {
	p, task, sources := demoSetup(t, 40, 5)
	reg := obs.NewRegistry()
	prop, err := NewProposer(KindAuto, PoolConfig{Config: Config{Sources: sources}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	pool := prop.(*Pool)
	runProposer(t, p, task, pool, 8, 6)
	if got, want := pool.names, []string{KindGP, KindLCM, KindCopula, KindSGP, armSpace}; !slices.Equal(got, want) {
		t.Fatalf("arms %v, want %v", got, want)
	}
	total := 0
	for _, c := range pool.SelectedCounts() {
		total += c
	}
	if total < 4 {
		t.Fatalf("%d pulls over a budget of 8 with a warm-up of 3 rows", total)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, fam := range []string{"surrogate_selected_total", "surrogate_fit_seconds", "surrogate_fit_failures_total", "surrogate_arm_mean_reward"} {
		if !strings.Contains(out, fam) {
			t.Fatalf("metric family %q not exported", fam)
		}
	}
}

func TestPoolWithoutSourcesSkipsLCM(t *testing.T) {
	p, task, _ := demoSetup(t, 10, 7)
	pool := mustProposer(t, KindAuto, nil).(*Pool)
	runProposer(t, p, task, pool, 6, 8)
	if slices.Contains(pool.names, KindLCM) {
		t.Fatal("LCM arm present without sources")
	}
}

// TestPoolBeatsAlwaysLCM is the regret test: on a seeded transfer
// workload the auto pool must reach (or beat) the always-LCM incumbent
// within the same evaluation budget, averaged over seeds.
func TestPoolBeatsAlwaysLCM(t *testing.T) {
	var poolSum, lcmSum float64
	const repeats = 3
	const budget = 8
	for r := 0; r < repeats; r++ {
		p, task, sources := demoSetup(t, 60, int64(20+r))
		cfg := PoolConfig{Config: Config{Sources: sources}}
		for kind, sum := range map[string]*float64{KindAuto: &poolSum, KindLCM: &lcmSum} {
			prop, err := NewProposer(kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			*sum += bestY(t, runProposer(t, p, task, prop, budget, int64(30+r)))
		}
	}
	if poolSum/repeats > lcmSum/repeats+0.1 {
		t.Fatalf("pool (%v) clearly worse than always-LCM (%v) at equal budget",
			poolSum/repeats, lcmSum/repeats)
	}
}

func TestPoolStateRoundTrip(t *testing.T) {
	p, task, sources := demoSetup(t, 40, 9)
	pool := mustProposer(t, KindAuto, sources).(*Pool)
	runProposer(t, p, task, pool, 8, 10)
	state, err := pool.StateCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Restore before the arm set exists (the ResumeSession order); a
	// checkpoint taken then must carry the pending state on.
	fresh := mustProposer(t, KindAuto, sources).(*Pool)
	if err := fresh.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	if again, err := fresh.StateCheckpoint(); err != nil || string(again) != string(state) {
		t.Fatalf("unbuilt pool re-checkpointed %s (%v), want %s", again, err, state)
	}
	runProposer(t, p, task, fresh, 5, 11) // forces lazy build + pending apply
	orig, cont := 0, 0
	for _, c := range pool.SelectedCounts() {
		orig += c
	}
	for _, c := range fresh.SelectedCounts() {
		cont += c
	}
	if cont <= orig {
		t.Fatalf("restored pool counts %d pulls after more, original had %d", cont, orig)
	}
	// ... and onto a built pool.
	if err := pool.RestoreState(state); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRejectsForeignState: checkpoints arrive through the task pool
// and are untrusted. A payload in a format PR 15 and earlier wrote, or
// one that does not fit the row, is an error — never a silent reset.
func TestPoolRejectsForeignState(t *testing.T) {
	p, task, sources := demoSetup(t, 40, 9)
	good := func(name string) (string, []byte) {
		pool := mustProposer(t, name, sources).(*Pool)
		runProposer(t, p, task, pool, 5, 10)
		state, err := pool.StateCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		return name, state
	}
	cases := map[string][]string{
		"Ensemble(proposed)": {
			`{"chosen":[0,1],"best_out":[0.5,null,null],"credited":2,"members":[null,null,null]}`, // tla.Ensemble's
			`{"v":2,"last_arm":3}`,
			`{"v":2,"last_arm":-2}`,
			`{"v":2,"last_arm":0,"last_iter":-1}`,
			`{"v":2,"last_arm":0,"arms":{"gp":null}}`,
			`{"v":2,"last_arm":0,"arms":{"Stacking":null}}`,
			`{"v":2,"last_arm":0,"arms":{"lcm":[[0,99]]}}`,
			`{"v":2,"last_arm":0,"selector":{"names":["lcm","Stacking","WeightedSum(dynamic)"],"credit":[{"pulls":1},{"pulls":0},{"pulls":0}]}}`,
			`{`,
		},
		KindAuto: {
			`{"selector":{"names":["gp","lcm","copula","sgp","space"],"pulls":[1,1,1,1,1],"rewards":[0,0,0,0,0],"t":5},"last_arm":4,"prev_best":0.5,"arms":{"lcm":null}}`, // the old pool's
			`{"v":2,"last_arm":0,"arms":{"space":null}}`,
		},
		KindLCM: {
			`[[0,1,2]]`, // surrogate.Fixed's: the bare arm state
			`null`,
		},
		"Multitask(PS)": {
			`{"x":[[[0.5]]],"y":[[1]]}`, // tla.MultitaskPS's
			`{"v":2,"last_arm":0,"arms":{"Multitask(PS)":{"x":[[[0.5]]],"y":[[1,2]]}}}`,
		},
	}
	for name, payloads := range cases {
		_, own := good(name)
		for _, other := range []string{"Stacking", KindGP} {
			if _, foreign := good(other); other != name {
				payloads = append(payloads, string(foreign))
			}
		}
		for _, payload := range payloads {
			// Rejected either at RestoreState or when the arm set is built.
			pool := mustProposer(t, name, sources).(*Pool)
			err := pool.RestoreState([]byte(payload))
			if err == nil {
				_, err = core.RunLoop(p, task, pool, core.SessionOptions{Budget: 1, Seed: 1})
			}
			if err == nil {
				t.Fatalf("%s accepted the state %s", name, payload)
			}
		}
		if err := mustProposer(t, name, sources).(*Pool).RestoreState(own); err != nil {
			t.Fatalf("%s refused its own state: %v", name, err)
		}
	}
}

// TestEnsembleCreditsBestOutputs: Eq. 3 reads the best output each arm
// has produced. After a run the minimum over the arms' credited bests
// is the best of the evaluations an arm proposed (every one but the
// first, which the source mix answers).
func TestEnsembleCreditsBestOutputs(t *testing.T) {
	p, task, sources := demoSetup(t, 40, 9)
	pool := mustProposer(t, "Ensemble(proposed)", sources).(*Pool)
	h := runProposer(t, p, task, pool, 6, 10)
	_, Y, _ := h.RobustXY()
	pool.settleCredit(h, Y)
	credited, want := math.Inf(1), math.Inf(1)
	for _, c := range pool.sel.credit {
		if c.Best != nil {
			credited = math.Min(credited, *c.Best)
		}
	}
	for _, s := range h.Samples[1:] {
		want = math.Min(want, s.Y)
	}
	if credited != want {
		t.Fatalf("credited min %v, want %v", credited, want)
	}
}
