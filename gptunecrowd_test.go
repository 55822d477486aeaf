package gptunecrowd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"gptunecrowd/internal/apps/synth"
	"gptunecrowd/internal/crowd"
)

func demoProblem() *Problem { return synth.DemoProblem() }

func collectDemo(t *testing.T, tval float64, n int, seed int64) ([][]float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	X, Y, err := synth.CollectSamples(demoProblem(), map[string]interface{}{"t": tval}, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	return X, Y
}

func TestTuneNoTLA(t *testing.T) {
	res, err := Tune(demoProblem(), map[string]interface{}{"t": 1.0}, TuneOptions{Budget: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "NoTLA" {
		t.Fatalf("default algorithm = %s", res.Algorithm)
	}
	if res.History.Len() != 12 || res.BestParams == nil {
		t.Fatal("history or best missing")
	}
}

func TestTuneDefaultsToEnsembleWithSources(t *testing.T) {
	X, Y := collectDemo(t, 0.8, 50, 2)
	res, err := Tune(demoProblem(), map[string]interface{}{"t": 1.0}, TuneOptions{
		Budget:  5,
		Seed:    3,
		Sources: []*SourceTask{NewSource("t=0.8", X, Y)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "Ensemble(proposed)" {
		t.Fatalf("algorithm = %s", res.Algorithm)
	}
}

func TestAllAlgorithmNamesConstruct(t *testing.T) {
	X, Y := collectDemo(t, 0.8, 20, 4)
	sources := []*SourceTask{NewSource("s", X, Y)}
	for _, name := range Algorithms() {
		p, err := NewProposer(name, sources, 30)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "NoTLA" && p.Name() != name {
			t.Fatalf("constructed %q for requested %q", p.Name(), name)
		}
	}
	if _, err := NewProposer("Magic", sources, 0); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := NewProposer("Stacking", nil, 0); err == nil {
		t.Fatal("TLA without sources should fail")
	}
}

func TestSourceFromConfigs(t *testing.T) {
	ps := demoProblem().ParamSpace
	cfgs := []map[string]interface{}{
		{"x": 0.5},
		{"x": 0.7},
		{"x": "broken"},
	}
	src, skipped, err := SourceFromConfigs("s", ps, cfgs, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != 2 || skipped != 1 {
		t.Fatalf("len=%d skipped=%d", src.Len(), skipped)
	}
	if _, _, err := SourceFromConfigs("s", ps, cfgs[:1], []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, _, err := SourceFromConfigs("s", ps, []map[string]interface{}{{"x": "bad"}}, []float64{1}); err == nil {
		t.Fatal("all-bad configs should fail")
	}
}

func crowdFixture(t *testing.T) (*CrowdClient, *MetaDescription) {
	t.Helper()
	srv := httptest.NewServer(crowd.NewServer())
	t.Cleanup(srv.Close)
	c := ConnectWith(ConnectOptions{URL: srv.URL})
	if _, err := c.Register("tester", "t@example.com"); err != nil {
		t.Fatal(err)
	}
	metaJSON := `{
		"api_key": "` + c.APIKey + `",
		"crowd_repo_url": "` + srv.URL + `",
		"tuning_problem_name": "demo",
		"problem_space": {
			"input_space": [{"name":"t","type":"real","lower_bound":0,"upper_bound":10}],
			"parameter_space": [{"name":"x","type":"real","lower_bound":0,"upper_bound":1}],
			"output_space": [{"name":"y","type":"real"}]
		},
		"sync_crowd_repo": "yes"
	}`
	d, err := ParseMeta([]byte(metaJSON))
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

func seedCrowd(t *testing.T, c *CrowdClient, tval float64, n int, seed int64) {
	t.Helper()
	p := demoProblem()
	rng := rand.New(rand.NewSource(seed))
	X, Y, err := synth.CollectSamples(p, map[string]interface{}{"t": tval}, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	evals := make([]FuncEval, n)
	for i := range X {
		evals[i] = FuncEval{
			TuningProblemName: "demo",
			TaskParams:        map[string]interface{}{"t": tval},
			TuningParams:      p.ParamSpace.Decode(X[i]),
			Output:            Y[i],
			Machine:           MachineConfiguration{MachineName: "Cori", Partition: "haswell", Nodes: 1},
			Accessibility:     "public",
		}
	}
	if _, err := c.Upload(evals); err != nil {
		t.Fatal(err)
	}
}

func TestCrowdEndToEnd(t *testing.T) {
	c, d := crowdFixture(t)
	seedCrowd(t, c, 0.8, 60, 5)
	seedCrowd(t, c, 1.2, 30, 6)

	// QueryFunctionEvaluations.
	evals, err := QueryFunctionEvaluationsContext(context.Background(), c, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 90 {
		t.Fatalf("downloaded %d samples", len(evals))
	}

	// SourcesFromEvals groups by task, biggest first.
	sources, err := SourcesFromEvals(d.ProblemSpace.ParameterSpace, evals)
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 2 || sources[0].Len() != 60 || sources[1].Len() != 30 {
		t.Fatalf("groups: %d (%d, %d)", len(sources), sources[0].Len(), sources[1].Len())
	}

	// QuerySurrogateModel returns a usable black box.
	surr, err := QuerySurrogateModelContext(context.Background(), c, d, SurrogateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mean, std := surr(map[string]interface{}{"x": 0.4})
	if math.IsNaN(mean) || std <= 0 {
		t.Fatalf("surrogate prediction %v ± %v", mean, std)
	}

	// QueryPredictOutput agrees with the surrogate mean.
	pred, err := QueryPredictOutputContext(context.Background(), c, d, map[string]interface{}{"x": 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred-mean) > 1e-9 {
		t.Fatalf("predict %v vs surrogate %v", pred, mean)
	}

	// QuerySensitivityAnalysis produces indices for the lone parameter.
	res, err := QuerySensitivityAnalysisContext(context.Background(), c, d, SensitivityOptions{N: 128, NBoot: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 1 || res.Names[0] != "x" {
		t.Fatalf("sensitivity names %v", res.Names)
	}

	// Transfer-learn with the crowd sources.
	tuned, err := Tune(demoProblem(), map[string]interface{}{"t": 1.0}, TuneOptions{
		Budget: 5, Seed: 8, Sources: sources, Algorithm: "Multitask(TS)", MaxSourceSamples: 40,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Upload the run back to the crowd.
	machine, err := d.ResolveMachine(func(string) string { return "" })
	if err == nil {
		t.Log("unexpected: no slurm requested")
	}
	machine = MachineConfiguration{MachineName: "Cori", Partition: "haswell", Nodes: 1}
	ids, err := UploadHistoryContext(context.Background(), c, d, map[string]interface{}{"t": 1.0}, tuned.History, machine, nil, "public")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 5 {
		t.Fatalf("uploaded %d of 5", len(ids))
	}
	after, err := QueryFunctionEvaluationsContext(context.Background(), c, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 95 {
		t.Fatalf("after upload: %d", len(after))
	}
}

func TestUploadHistoryEmpty(t *testing.T) {
	c, d := crowdFixture(t)
	_, err := UploadHistoryContext(context.Background(), c, d, nil, &History{}, MachineConfiguration{}, nil, "public")
	if err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("expected empty-history error, got %v", err)
	}
}

func TestSensitivityFromFunc(t *testing.T) {
	ps := MustSpace(
		Param{Name: "a", Kind: Real, Lo: 0, Hi: 1},
		Param{Name: "b", Kind: Real, Lo: 0, Hi: 1},
	)
	res, err := SensitivityFromFunc(func(cfg map[string]interface{}) float64 {
		return 5 * cfg["a"].(float64)
	}, ps, SensitivityOptions{N: 256, NBoot: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ST[0] < 0.9 || res.ST[1] > 0.05 {
		t.Fatalf("ST = %v", res.ST)
	}
	red := res.MostSensitive(0.5)
	if len(red) != 1 || red[0] != "a" {
		t.Fatalf("MostSensitive = %v", red)
	}
}

func TestQuerySurrogateModelOpts(t *testing.T) {
	c, d := crowdFixture(t)
	seedCrowd(t, c, 1.0, 40, 11)
	for _, kern := range []string{"", "rbf", "matern32", "matern52"} {
		surr, err := QuerySurrogateModelContext(context.Background(), c, d, SurrogateOptions{Kernel: kern, Seed: 1})
		if err != nil {
			t.Fatalf("kernel %q: %v", kern, err)
		}
		mean, std := surr(map[string]interface{}{"x": 0.5})
		if math.IsNaN(mean) || std <= 0 {
			t.Fatalf("kernel %q: prediction %v ± %v", kern, mean, std)
		}
	}
	if _, err := QuerySurrogateModelContext(context.Background(), c, d, SurrogateOptions{Kernel: "spline"}); err == nil {
		t.Fatal("unknown kernel should fail")
	}
}

// TestQueryPredictOutputRejectsUnencodable: a configuration the
// parameter space cannot encode is an error, not a prediction of 0.
// The SurrogateModel closure answers such input with (0, 0).
func TestQueryPredictOutputRejectsUnencodable(t *testing.T) {
	c, d := crowdFixture(t)
	seedCrowd(t, c, 1.0, 20, 3)
	ctx := context.Background()
	surr, err := QuerySurrogateModelContext(ctx, c, d, SurrogateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []map[string]interface{}{{}, {"x": "bogus"}, {"y": 0.3}} {
		if pred, err := QueryPredictOutputContext(ctx, c, d, cfg); err == nil {
			t.Errorf("%v: predicted %v with a nil error", cfg, pred)
		}
		if mean, std := surr(cfg); mean != 0 || std != 0 {
			t.Errorf("%v: surrogate answered %v ± %v, want 0 ± 0", cfg, mean, std)
		}
	}
}

// TestCrowdUtilitiesHonourCancel calls every root function that reaches
// the crowd server with an already-cancelled context.
func TestCrowdUtilitiesHonourCancel(t *testing.T) {
	c, d := crowdFixture(t)
	seedCrowd(t, c, 1.0, 20, 4)
	p := demoProblem()
	h := &History{}
	for _, x := range []float64{0.2, 0.7} {
		if err := ReportResult(p, h, map[string]interface{}{"x": x}, x*x, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	task := map[string]interface{}{"t": 1.0}
	machine := MachineConfiguration{MachineName: "Cori"}
	cases := []struct {
		name string
		call func() error
	}{
		{"QueryFunctionEvaluationsContext", func() error { _, err := QueryFunctionEvaluationsContext(ctx, c, d); return err }},
		{"QuerySurrogateModelContext", func() error { _, err := QuerySurrogateModelContext(ctx, c, d, SurrogateOptions{}); return err }},
		{"QueryPredictOutputContext", func() error {
			_, err := QueryPredictOutputContext(ctx, c, d, map[string]interface{}{"x": 0.4})
			return err
		}},
		{"QuerySensitivityAnalysisContext", func() error {
			_, err := QuerySensitivityAnalysisContext(ctx, c, d, SensitivityOptions{N: 64, NBoot: 2})
			return err
		}},
		{"UploadHistoryContext", func() error {
			_, err := UploadHistoryContext(ctx, c, d, task, h, machine, nil, "public")
			return err
		}},
		{"UploadSurrogateModelContext", func() error {
			_, err := UploadSurrogateModelContext(ctx, c, d, task, h, machine, "public")
			return err
		}},
		{"DownloadSurrogateModelContext", func() error { _, err := DownloadSurrogateModelContext(ctx, c, d); return err }},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", tc.name, err)
		}
	}
}
