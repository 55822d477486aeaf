package gptunecrowd

// One benchmark per table and figure of the paper's evaluation section,
// each running a miniature (but structurally identical) version of the
// corresponding experiment and reporting the figure's headline quantity
// as a custom metric:
//
//   - comparison figures report best-objective metrics per tuner group
//     ("best_notla", "best_tla") whose ratio is the paper's speedup,
//   - sensitivity tables report the top total-effect index,
//   - reduced-space figures report original vs reduced best objectives.
//
// The full-size experiments live behind `go run ./cmd/experiments
// -scale paper`; these benches are sized to keep `go test -bench=.`
// in the minutes range.

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"gptunecrowd/internal/core"
	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/experiments"
	"gptunecrowd/internal/gp"
	"gptunecrowd/internal/kernel"
	"gptunecrowd/internal/lcm"
	"gptunecrowd/internal/parallel"
	"gptunecrowd/internal/sample"
	"gptunecrowd/internal/sensitivity"
	"gptunecrowd/internal/space"
	"gptunecrowd/internal/suggest"
	"gptunecrowd/internal/surrogate"
)

// benchScale miniaturizes every experiment.
var benchScale = experiments.Scale{
	Budget:           5,
	Repeats:          1,
	SourceSamples:    25,
	MaxSourceSamples: 20,
	SurrogateCap:     50,
	SensN:            64,
	Seed:             1,
	Search:           core.SearchOptions{Candidates: 48, DEGens: 8},
}

// reportComparison emits the NoTLA-vs-best-TLA metrics of a comparison
// figure.
func reportComparison(b *testing.B, res *experiments.FigureResult) {
	b.Helper()
	at := res.Budget
	no := res.BestAt("NoTLA", at)
	if !math.IsNaN(no) {
		b.ReportMetric(no, "best_notla")
	}
	bestTLA := math.Inf(1)
	for _, s := range res.Series {
		if s.Name == "NoTLA" {
			continue
		}
		if v := res.BestAt(s.Name, at); !math.IsNaN(v) && v < bestTLA {
			bestTLA = v
		}
	}
	if !math.IsInf(bestTLA, 1) {
		b.ReportMetric(bestTLA, "best_tla")
	}
}

func benchFigure(b *testing.B, run func() (*experiments.FigureResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportComparison(b, res)
		}
	}
}

// --- Fig. 3: synthetic-function TLA comparison.

func BenchmarkFig3DemoTarget10(b *testing.B) {
	benchFigure(b, func() (*experiments.FigureResult, error) { return experiments.Fig3("a", benchScale) })
}

func BenchmarkFig3DemoTarget12(b *testing.B) {
	benchFigure(b, func() (*experiments.FigureResult, error) { return experiments.Fig3("b", benchScale) })
}

func BenchmarkFig3BraninOneSource(b *testing.B) {
	benchFigure(b, func() (*experiments.FigureResult, error) { return experiments.Fig3("c", benchScale) })
}

func BenchmarkFig3BraninThreeSources(b *testing.B) {
	benchFigure(b, func() (*experiments.FigureResult, error) { return experiments.Fig3("e", benchScale) })
}

// --- Fig. 4: PDGEQRF case study.

func BenchmarkFig4PDGEQRFOneSource(b *testing.B) {
	benchFigure(b, func() (*experiments.FigureResult, error) { return experiments.Fig4("a", benchScale) })
}

func BenchmarkFig4PDGEQRFThreeSources(b *testing.B) {
	benchFigure(b, func() (*experiments.FigureResult, error) { return experiments.Fig4("b", benchScale) })
}

// --- Fig. 5: NIMROD case study.

func BenchmarkFig5NIMRODNodeScaling(b *testing.B) {
	benchFigure(b, func() (*experiments.FigureResult, error) { return experiments.Fig5("a", benchScale) })
}

func BenchmarkFig5NIMRODCrossArch(b *testing.B) {
	benchFigure(b, func() (*experiments.FigureResult, error) { return experiments.Fig5("b", benchScale) })
}

func BenchmarkFig5NIMRODLargeTask(b *testing.B) {
	benchFigure(b, func() (*experiments.FigureResult, error) { return experiments.Fig5("c", benchScale) })
}

// --- Tables IV / V: sensitivity analyses.

func benchSensitivity(b *testing.B, run func(experiments.Scale) (*sensitivity.Result, error), top string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for j, n := range res.Names {
				if n == top {
					b.ReportMetric(res.ST[j], "top_ST")
				}
			}
		}
	}
}

func BenchmarkTable4SuperLUSensitivity(b *testing.B) {
	benchSensitivity(b, experiments.Table4, "COLPERM")
}

func BenchmarkTable5HypreSensitivity(b *testing.B) {
	benchSensitivity(b, experiments.Table5, "smooth_type")
}

// --- Figs. 6 / 7: reduced-space tuning.

func benchReduced(b *testing.B, run func(experiments.Scale) (*experiments.FigureResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.BestAt("original space", res.Budget), "best_original")
			b.ReportMetric(res.BestAt("reduced space", res.Budget), "best_reduced")
		}
	}
}

func BenchmarkFig6SuperLUReducedSpace(b *testing.B) {
	benchReduced(b, experiments.Fig6)
}

func BenchmarkFig7HypreReducedSpace(b *testing.B) {
	benchReduced(b, experiments.Fig7)
}

// --- Tables I–III (static, effectively free: they assert the
// metadata renders).

func BenchmarkTable1AlgorithmPool(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2PDGEQRFParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3NIMRODParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table3()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Ablation benches for the design choices called out in DESIGN.md.

// Ablation: the ensemble's dynamic exploration rate (Eq. 4) vs the two
// naive ensembles. Reports each variant's final best.
func BenchmarkAblationEnsembleSelection(b *testing.B) {
	p, task, sources := fig3Fixture(b)
	for i := 0; i < b.N; i++ {
		finals := map[string]float64{}
		for _, alg := range []string{"Ensemble(proposed)", "Ensemble(toggling)", "Ensemble(prob)"} {
			prop, err := NewProposer(alg, sources, benchScale.MaxSourceSamples)
			if err != nil {
				b.Fatal(err)
			}
			h, err := core.RunLoop(p, task, prop, core.SessionOptions{Budget: benchScale.Budget, Seed: int64(i + 1), Search: benchScale.Search})
			if err != nil {
				b.Fatal(err)
			}
			if best, ok := h.Best(); ok {
				finals[alg] = best.Y
			}
		}
		if i == b.N-1 {
			b.ReportMetric(finals["Ensemble(proposed)"], "best_proposed")
			b.ReportMetric(finals["Ensemble(toggling)"], "best_toggling")
			b.ReportMetric(finals["Ensemble(prob)"], "best_prob")
		}
	}
}

// Ablation: acquisition function (EI vs LCB) on the NoTLA tuner.
func BenchmarkAblationAcquisition(b *testing.B) {
	p, task, _ := fig3Fixture(b)
	for i := 0; i < b.N; i++ {
		finals := map[string]float64{}
		for _, acq := range []core.Acquisition{core.EI{}, core.LCB{}} {
			tuner, err := surrogate.NewProposer("NoTLA", surrogate.PoolConfig{Acquisition: acq})
			if err != nil {
				b.Fatal(err)
			}
			h, err := core.RunLoop(p, task, tuner, core.SessionOptions{Budget: benchScale.Budget + 4, Seed: int64(i + 1), Search: benchScale.Search})
			if err != nil {
				b.Fatal(err)
			}
			if best, ok := h.Best(); ok {
				finals[acq.Name()] = best.Y
			}
		}
		if i == b.N-1 {
			b.ReportMetric(finals["EI"], "best_ei")
			b.ReportMetric(finals["LCB"], "best_lcb")
		}
	}
}

// Ablation: Multitask(TS) source-sample cap — the accuracy/cost knob of
// the LCM (DESIGN.md).
func BenchmarkAblationSourceCap(b *testing.B) {
	p, task, sources := fig3Fixture(b)
	for _, srcCap := range []int{10, 20, 40} {
		b.Run(itoa(srcCap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prop, err := NewProposer("Multitask(TS)", sources, srcCap)
				if err != nil {
					b.Fatal(err)
				}
				h, err := core.RunLoop(p, task, prop, core.SessionOptions{Budget: benchScale.Budget, Seed: int64(i + 1), Search: benchScale.Search})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					if best, ok := h.Best(); ok {
						b.ReportMetric(best.Y, "best")
					}
				}
			}
		})
	}
}

// --- Micro-benchmarks of the core numerical kernels.

func BenchmarkGPFit100Samples(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n, dim := 100, 4
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		X[i] = x
		Y[i] = x[0]*x[0] + math.Sin(3*x[1]) + 0.1*rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gp.Fit(X, Y, gp.Options{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLCMFitTwoTasks(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	mk := func(n int, scale float64) ([][]float64, []float64) {
		X := make([][]float64, n)
		Y := make([]float64, n)
		for i := range X {
			x := rng.Float64()
			X[i] = []float64{x}
			Y[i] = scale * math.Sin(2*math.Pi*x)
		}
		return X, Y
	}
	X1, Y1 := mk(30, 1)
	X2, Y2 := mk(5, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lcm.Fit([][][]float64{X1, X2}, [][]float64{Y1, Y2},
			lcm.Options{Seed: int64(i), MaxIter: 20, Restarts: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSobolSequence(b *testing.B) {
	seq, err := sample.NewSobolSeq(12)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.Next(dst)
	}
}

func BenchmarkSaltelliSensitivity(b *testing.B) {
	f := func(u []float64) float64 { return u[0] + 2*u[1]*u[2] }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sensitivity.Analyze(f, 3, nil, sensitivity.Options{N: 256, NBoot: 20, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel-engine benchmarks: the same kernels with explicit worker
// counts. On a multicore machine the W{4,8} variants show the speedup;
// on one core they bound the scheduling overhead of the worker pool.

func BenchmarkKernelMatrixParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n, dim := 400, 6
	X := make([][]float64, n)
	for i := range X {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		X[i] = x
	}
	k := kernel.New(kernel.Matern52, dim)
	h := kernel.NewHyper(dim)
	for _, w := range []int{1, 4, 8} {
		b.Run("W"+itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.MatrixWorkers(X, h, w)
			}
		})
	}
}

func BenchmarkGPFitParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n, dim := 100, 4
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		X[i] = x
		Y[i] = x[0]*x[0] + math.Sin(3*x[1]) + 0.1*rng.NormFloat64()
	}
	for _, w := range []int{1, 4, 8} {
		b.Run("W"+itoa(w), func(b *testing.B) {
			b.Setenv(parallel.EnvWorkers, itoa(w))
			for i := 0; i < b.N; i++ {
				if _, err := gp.Fit(X, Y, gp.Options{Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSaltelliParallel(b *testing.B) {
	f := func(u []float64) float64 {
		s := u[0] + 2*u[1]*u[2]
		for j := 0; j < 200; j++ { // stand-in for a surrogate-prediction-cost objective
			s += math.Sin(s) * 1e-9
		}
		return s
	}
	for _, w := range []int{1, 4, 8} {
		b.Run("W"+itoa(w), func(b *testing.B) {
			b.Setenv(parallel.EnvWorkers, itoa(w))
			for i := 0; i < b.N; i++ {
				if _, err := sensitivity.Analyze(f, 3, nil, sensitivity.Options{N: 256, NBoot: 20, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Suggestion-service benchmarks: the /api/v1/suggest hot path.
//
// BenchmarkSuggestHotPath is the CI allocation guard: steady-state
// suggestion serving from a warm cache (no fits, no history growth)
// must stay allocation-flat — scripts/ci.sh fails when allocs/op
// regresses past its threshold.

// benchSuggestSource serves a fixed in-memory snapshot.
type benchSuggestSource struct{ snap *suggest.Snapshot }

func (s benchSuggestSource) History(context.Context, string, map[string]interface{}) (*suggest.Snapshot, error) {
	return s.snap, nil
}

func suggestBenchSnapshot(n int) *suggest.Snapshot {
	sp, err := space.New(
		space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "y", Kind: space.Real, Lo: 0, Hi: 1},
	)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(5))
	snap := &suggest.Snapshot{Space: sp, Version: uint64(n)}
	for i := 0; i < n; i++ {
		u := []float64{rng.Float64(), rng.Float64()}
		snap.X = append(snap.X, u)
		snap.Y = append(snap.Y, 1+math.Pow(u[0]-0.3, 2)+math.Pow(u[1]-0.6, 2)+0.01*rng.NormFloat64())
	}
	return snap
}

func BenchmarkSuggestHotPath(b *testing.B) {
	svc := suggest.New(benchSuggestSource{suggestBenchSnapshot(64)}, suggest.Config{Seed: 9})
	ctx := context.Background()
	req := suggest.Request{Problem: "bench"}
	if _, err := svc.Suggest(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Suggest(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := svc.Stats()
	b.ReportMetric(float64(st.CacheHits)/float64(st.Requests), "hit_rate")
}

// BenchmarkSuggestBatchHotPath measures steady-state batched serving:
// each request clones the cached surrogate and runs the constant-liar
// loop for 8 points against a full liar ledger. Allocations are gated
// in scripts/ci.sh (batch serving is clone-per-request by design, so
// its budget is far above the single-proposal gate, but still fixed).
func BenchmarkSuggestBatchHotPath(b *testing.B) {
	svc := suggest.New(benchSuggestSource{suggestBenchSnapshot(64)}, suggest.Config{Seed: 9})
	ctx := context.Background()
	req := suggest.Request{Problem: "bench", Batch: 8}
	if _, err := svc.Suggest(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Suggest(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := svc.Stats()
	b.ReportMetric(float64(st.LiarsActive), "liars_active")
}

// BenchmarkSuggestEndpoint measures the full HTTP round trip under
// parallel load against an in-process server.
func BenchmarkSuggestEndpoint(b *testing.B) {
	sp, err := space.New(
		space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "y", Kind: space.Real, Lo: 0, Hi: 1},
	)
	if err != nil {
		b.Fatal(err)
	}
	srv := crowd.NewServerWith(crowd.Config{SuggestSeed: 9})
	srv.RegisterProblemPolicy("bench", crowd.ProblemPolicy{Space: sp})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := crowd.NewClient(ts.URL, "")
	if _, err := client.Register("bench", ""); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	evals := make([]FuncEval, 64)
	for i := range evals {
		x, y := rng.Float64(), rng.Float64()
		evals[i] = FuncEval{
			TuningProblemName: "bench",
			TuningParams:      map[string]interface{}{"x": x, "y": y},
			Output:            1 + math.Pow(x-0.3, 2) + math.Pow(y-0.6, 2) + 0.01*rng.NormFloat64(),
		}
	}
	if _, err := client.Upload(evals); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := crowd.SuggestRequest{TuningProblemName: "bench"}
	if _, err := client.SuggestRemote(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := client.SuggestRemote(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fig3Fixture builds the shared demo-function transfer fixture.
func fig3Fixture(b *testing.B) (*core.Problem, map[string]interface{}, []*SourceTask) {
	b.Helper()
	p := demoProblem()
	src, err := experiments.CollectSourceSamples("t=0.8", p, map[string]interface{}{"t": 0.8}, benchScale.SourceSamples, 77)
	if err != nil {
		b.Fatal(err)
	}
	return p, map[string]interface{}{"t": 1.0}, []*SourceTask{src}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// Extension bench: batched constant-liar tuning vs sequential at equal
// budget (wall-clock advantage appears when evaluations are slow; here
// we report solution quality parity).
func BenchmarkExtensionBatchTuning(b *testing.B) {
	p, task, _ := fig3Fixture(b)
	for i := 0; i < b.N; i++ {
		seq, err := core.RunLoop(p, task, mustNoTLA(b), core.SessionOptions{Budget: 8, Seed: int64(i + 1), Search: benchScale.Search})
		if err != nil {
			b.Fatal(err)
		}
		sess, err := core.NewSession(p, task, mustNoTLA(b), core.SessionOptions{Budget: 8, Seed: int64(i + 1), Search: benchScale.Search})
		if err != nil {
			b.Fatal(err)
		}
		bat, err := sess.RunBatchContext(context.Background(), 4, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			if best, ok := seq.Best(); ok {
				b.ReportMetric(best.Y, "best_sequential")
			}
			if best, ok := bat.Best(); ok {
				b.ReportMetric(best.Y, "best_batched")
			}
		}
	}
}
