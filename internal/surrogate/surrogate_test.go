package surrogate

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gptunecrowd/internal/apps/synth"
	"gptunecrowd/internal/core"
	"gptunecrowd/internal/obs"
	"gptunecrowd/internal/tla"
)

func demoSetup(t *testing.T, nSrc int, seed int64) (*core.Problem, map[string]interface{}, []*tla.Source) {
	t.Helper()
	p := synth.DemoProblem()
	rng := rand.New(rand.NewSource(seed))
	X, Y, err := synth.CollectSamples(p, map[string]interface{}{"t": 0.8}, nSrc, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p, map[string]interface{}{"t": 1.0}, []*tla.Source{tla.NewSource("t=0.8", X, Y)}
}

func runProposer(t *testing.T, p *core.Problem, task map[string]interface{}, prop core.Proposer, budget int, seed int64) *core.History {
	t.Helper()
	h, err := core.RunLoop(p, task, prop, core.SessionOptions{Budget: budget, Seed: seed,
		Search: core.SearchOptions{Candidates: 128, DEGens: 15}})
	if err != nil {
		t.Fatalf("%s: %v", prop.Name(), err)
	}
	return h
}

func bestY(t *testing.T, h *core.History) float64 {
	t.Helper()
	b, ok := h.Best()
	if !ok {
		t.Fatal("run found nothing")
	}
	return b.Y
}

func TestKindValidation(t *testing.T) {
	for _, k := range Kinds() {
		if !ValidKind(k) {
			t.Fatalf("kind %q should validate", k)
		}
	}
	if !ValidKind("") {
		t.Fatal("empty kind means auto and should validate")
	}
	if ValidKind("nonsense") {
		t.Fatal("unknown kind validated")
	}
	if _, err := New("nonsense", Config{Dim: 1}); err == nil {
		t.Fatal("New with unknown kind should fail")
	}
	if _, err := New(KindLCM, Config{Dim: 1}); err == nil {
		t.Fatal("LCM without sources should fail")
	}
}

func TestAdaptersSatisfyLifecycle(t *testing.T) {
	_, _, sources := demoSetup(t, 40, 1)
	rng := rand.New(rand.NewSource(2))
	X := make([][]float64, 12)
	Y := make([]float64, 12)
	for i := range X {
		X[i] = []float64{rng.Float64()}
		Y[i] = synth.Demo(1.0, X[i][0])
	}
	for _, kind := range []string{KindGP, KindLCM, KindCopula, KindSGP} {
		s, err := New(kind, Config{Dim: 1, Sources: sources})
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != kind {
			t.Fatalf("Name = %q, want %q", s.Name(), kind)
		}
		// Unfitted adapters answer a harmless prior instead of crashing.
		if kind != KindLCM && kind != KindCopula {
			if mean, std := s.Predict(X[0]); mean != 0 || std != 1 {
				t.Fatalf("%s unfitted prior = (%v, %v)", kind, mean, std)
			}
		}
		if err := s.Fit(X, Y); err != nil {
			t.Fatalf("%s fit: %v", kind, err)
		}
		mean, std := s.Predict([]float64{0.5})
		if math.IsNaN(mean) || std <= 0 {
			t.Fatalf("%s posterior = (%v, %v)", kind, mean, std)
		}
		means := make([]float64, len(X))
		stds := make([]float64, len(X))
		s.PredictBatchInto(X, means, stds, 2)
		for i, x := range X {
			m2, s2 := s.Predict(x)
			if means[i] != m2 || stds[i] != s2 {
				t.Fatalf("%s batch diverges from pointwise at %d", kind, i)
			}
		}
		if err := s.Observe([]float64{0.3}, synth.Demo(1.0, 0.3)); err != nil {
			t.Fatalf("%s observe: %v", kind, err)
		}
		if c := s.Cost(1000); c <= 0 || c != s.Cost(1000) {
			t.Fatalf("%s cost not positive-deterministic: %v", kind, c)
		}
	}
}

func TestObserveBeforeFitErrors(t *testing.T) {
	_, _, sources := demoSetup(t, 10, 3)
	for _, kind := range []string{KindGP, KindLCM, KindSGP} {
		s, err := New(kind, Config{Dim: 1, Sources: sources})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Observe([]float64{0.5}, 1); err == nil {
			t.Fatalf("%s Observe before Fit should fail", kind)
		}
	}
}

// TestCheapArmsAreCheaper pins the cost-model ordering the bandit
// relies on: at crowd scale the copula and sparse-GP estimates must
// undercut the cubic GP/LCM estimates by a wide margin.
func TestCheapArmsAreCheaper(t *testing.T) {
	_, _, sources := demoSetup(t, 60, 4)
	cfg := Config{Dim: 1, Sources: sources}
	mk := func(kind string) core.Surrogate {
		s, err := New(kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	gpArm, lcmArm, copArm, sgpArm := mk(KindGP), mk(KindLCM), mk(KindCopula), mk(KindSGP)
	const n = 10000
	for _, cheap := range []core.Surrogate{copArm, sgpArm} {
		if gpArm.Cost(n) < 10*cheap.Cost(n) {
			t.Fatalf("gp cost %v not >= 10x %s cost %v", gpArm.Cost(n), cheap.Name(), cheap.Cost(n))
		}
		if lcmArm.Cost(n) < 10*cheap.Cost(n) {
			t.Fatalf("lcm cost %v not >= 10x %s cost %v", lcmArm.Cost(n), cheap.Name(), cheap.Cost(n))
		}
	}
}

func TestPoolArmsAndMetrics(t *testing.T) {
	p, task, sources := demoSetup(t, 40, 5)
	reg := obs.NewRegistry()
	pool := NewPool(PoolConfig{Config: Config{Sources: sources}, Metrics: reg})
	runProposer(t, p, task, pool, 8, 6)
	names := strings.Join(pool.ArmNames(), ",")
	for _, want := range []string{KindGP, KindLCM, KindCopula, KindSGP, armSpace} {
		if !strings.Contains(names, want) {
			t.Fatalf("arm %q missing from %q", want, names)
		}
	}
	total := 0
	for _, c := range pool.SelectedCounts() {
		total += c
	}
	if total == 0 {
		t.Fatal("no arm was ever selected")
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
	pool := NewPool(PoolConfig{})
	runProposer(t, p, task, pool, 6, 8)
	for _, n := range pool.ArmNames() {
		if n == KindLCM {
			t.Fatal("LCM arm present without sources")
		}
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
		pool := NewPool(PoolConfig{Config: Config{Sources: sources}})
		lcmProp, err := NewFixed(KindLCM, PoolConfig{Config: Config{Sources: sources}})
		if err != nil {
			t.Fatal(err)
		}
		poolSum += bestY(t, runProposer(t, p, task, pool, budget, int64(30+r)))
		lcmSum += bestY(t, runProposer(t, p, task, lcmProp, budget, int64(30+r)))
	}
	if poolSum/repeats > lcmSum/repeats+0.1 {
		t.Fatalf("pool (%v) clearly worse than always-LCM (%v) at equal budget",
			poolSum/repeats, lcmSum/repeats)
	}
}

func TestPoolStateRoundTrip(t *testing.T) {
	p, task, sources := demoSetup(t, 40, 9)
	pool := NewPool(PoolConfig{Config: Config{Sources: sources}})
	runProposer(t, p, task, pool, 8, 10)
	state, err := pool.StateCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// Restore before the arm set exists (the ResumeSession order).
	fresh := NewPool(PoolConfig{Config: Config{Sources: sources}})
	if err := fresh.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	runProposer(t, p, task, fresh, 2, 11) // forces lazy build + pending apply
	if got := fresh.SelectedCounts(); len(got) == 0 {
		t.Fatal("restored pool lost selector state")
	}
	// Counts carried over: total pulls of fresh >= pulls of original.
	orig, cont := 0, 0
	for _, c := range pool.SelectedCounts() {
		orig += c
	}
	for _, c := range fresh.SelectedCounts() {
		cont += c
	}
	if cont < orig {
		t.Fatalf("restored pulls %d < original %d", cont, orig)
	}
	if err := fresh.RestoreState([]byte("{")); err == nil {
		t.Fatal("corrupt state should fail")
	}
}

// TestFixedCheckpointBitIdentical is the satellite requirement:
// checkpoint/resume with a non-default surrogate active must replay
// bit-identically to an uninterrupted run.
func TestFixedCheckpointBitIdentical(t *testing.T) {
	for _, kind := range []string{KindCopula, KindSGP} {
		p, task, sources := demoSetup(t, 40, 12)
		opts := core.SessionOptions{Budget: 8, Seed: 13,
			Search: core.SearchOptions{Candidates: 64, DEGens: 10}}
		mkProp := func() core.Proposer {
			prop, err := NewProposer(kind, PoolConfig{Config: Config{Sources: sources}})
			if err != nil {
				t.Fatal(err)
			}
			return prop
		}

		full, err := core.NewSession(p, task, mkProp(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := full.Run(); err != nil {
			t.Fatal(err)
		}

		half, err := core.NewSession(p, task, mkProp(), opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := half.Step(); err != nil {
				t.Fatal(err)
			}
		}
		cp, err := half.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := core.ResumeSession(p, task, mkProp(), opts, cp)
		if err != nil {
			t.Fatal(err)
		}
		for !resumed.Done() {
			if err := resumed.Step(); err != nil {
				t.Fatal(err)
			}
		}

		a, b := full.History(), resumed.History()
		if a.Len() != b.Len() {
			t.Fatalf("%s: resumed %d samples, want %d", kind, b.Len(), a.Len())
		}
		for i := range a.Samples {
			sa, sb := a.Samples[i], b.Samples[i]
			if sa.Y != sb.Y {
				t.Fatalf("%s: sample %d objective %v != %v", kind, i, sb.Y, sa.Y)
			}
			for d := range sa.ParamU {
				if sa.ParamU[d] != sb.ParamU[d] {
					t.Fatalf("%s: sample %d coord %d differs", kind, i, d)
				}
			}
		}
	}
}

// TestPoolCheckpointBitIdentical extends the bit-identity wall to the
// stateful auto pool (selector state rides the proposer checkpoint).
func TestPoolCheckpointBitIdentical(t *testing.T) {
	p, task, sources := demoSetup(t, 40, 14)
	opts := core.SessionOptions{Budget: 8, Seed: 15,
		Search: core.SearchOptions{Candidates: 64, DEGens: 10}}
	mkPool := func() core.Proposer {
		return NewPool(PoolConfig{Config: Config{Sources: sources}})
	}

	full, err := core.NewSession(p, task, mkPool(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.Run(); err != nil {
		t.Fatal(err)
	}

	half, err := core.NewSession(p, task, mkPool(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := half.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := half.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := core.ResumeSession(p, task, mkPool(), opts, cp)
	if err != nil {
		t.Fatal(err)
	}
	for !resumed.Done() {
		if err := resumed.Step(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := full.History(), resumed.History()
	if a.Len() != b.Len() {
		t.Fatalf("resumed %d samples, want %d", b.Len(), a.Len())
	}
	for i := range a.Samples {
		if a.Samples[i].Y != b.Samples[i].Y {
			t.Fatalf("sample %d objective %v != %v", i, b.Samples[i].Y, a.Samples[i].Y)
		}
	}
}

func TestNewProposerRouting(t *testing.T) {
	cfg := PoolConfig{}
	if prop, err := NewProposer("", cfg); err != nil || prop.Name() != "Surrogate(auto)" {
		t.Fatalf("empty kind → %v, %v", prop, err)
	}
	if prop, err := NewProposer(KindAuto, cfg); err != nil || prop.Name() != "Surrogate(auto)" {
		t.Fatalf("auto kind → %v, %v", prop, err)
	}
	if prop, err := NewProposer(KindGP, cfg); err != nil || prop.Name() != "Surrogate(gp)" {
		t.Fatalf("gp kind → %v, %v", prop, err)
	}
	if _, err := NewProposer("bogus", cfg); err == nil {
		t.Fatal("bogus kind should fail")
	}
	if _, err := NewFixed(KindAuto, cfg); err == nil {
		t.Fatal("Fixed(auto) should fail")
	}
}
