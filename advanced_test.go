package gptunecrowd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"testing"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/gp"
)

func TestSuggestReportLoop(t *testing.T) {
	// Drive the tuner manually: suggest → evaluate out-of-band → report.
	p := demoProblem()
	task := map[string]interface{}{"t": 1.0}
	h := &History{}
	for i := 0; i < 6; i++ {
		cfg, err := SuggestNext(p, h, "NoTLA", nil, int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		y, evalErr := p.Evaluator.Evaluate(task, cfg)
		if err := ReportResult(p, h, cfg, y, evalErr); err != nil {
			t.Fatal(err)
		}
	}
	if h.Len() != 6 || h.NumOK() != 6 {
		t.Fatalf("history %d/%d", h.NumOK(), h.Len())
	}
	if _, ok := h.Best(); !ok {
		t.Fatal("no best")
	}
}

func TestReportResultFailure(t *testing.T) {
	p := demoProblem()
	h := &History{}
	if err := ReportResult(p, h, map[string]interface{}{"x": 0.5}, 0, errors.New("oom")); err != nil {
		t.Fatal(err)
	}
	if h.NumOK() != 0 || h.Len() != 1 {
		t.Fatal("failure not recorded")
	}
	if err := ReportResult(p, h, map[string]interface{}{"y": 1}, 0, nil); err == nil {
		t.Fatal("bad params should fail encoding")
	}
}

func TestSuggestNextWithSources(t *testing.T) {
	X, Y := collectDemo(t, 0.8, 30, 9)
	sources := []*SourceTask{NewSource("s", X, Y)}
	p := demoProblem()
	cfg, err := SuggestNext(p, nil, "Stacking", sources, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg["x"]; !ok {
		t.Fatalf("suggestion missing x: %v", cfg)
	}
	if _, err := SuggestNext(&Problem{}, nil, "NoTLA", nil, 1); err == nil {
		t.Fatal("invalid problem should fail")
	}
}

func TestTuneBatch(t *testing.T) {
	p := demoProblem()
	task := map[string]interface{}{"t": 1.0}
	res, err := TuneBatchContext(context.Background(), p, task, BatchTuneOptions{
		TuneOptions: TuneOptions{Budget: 9, Seed: 2},
		BatchSize:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.History.Len() != 9 {
		t.Fatalf("budget %d", res.History.Len())
	}
	if res.Algorithm != "NoTLA" || res.BestParams == nil {
		t.Fatalf("result %+v", res)
	}

	// TuneBatchContext is the same session as TuneContext, so every
	// TuneOptions field applies to it.
	res, err = TuneBatchContext(context.Background(), p, task, BatchTuneOptions{
		TuneOptions: TuneOptions{Budget: 6, Seed: 2, Surrogate: "gp"},
		BatchSize:   3,
	})
	if err != nil || res.Algorithm != "Surrogate(gp)" {
		t.Fatalf("Surrogate gp: algorithm %v, err %v", res, err)
	}
	if _, err := TuneBatchContext(context.Background(), p, task, BatchTuneOptions{
		TuneOptions: TuneOptions{Budget: 6, Algorithm: "NoTLA", Surrogate: "gp"},
	}); err == nil {
		t.Fatal("Algorithm and Surrogate together accepted")
	}

	var evals atomic.Int64
	nan := *p
	nan.Evaluator = EvaluatorFunc(func(task, params map[string]interface{}) (float64, error) {
		if evals.Add(1) == 2 {
			return math.NaN(), nil
		}
		return p.Evaluator.Evaluate(task, params)
	})
	res, err = TuneBatchContext(context.Background(), &nan, task, BatchTuneOptions{TuneOptions: TuneOptions{Budget: 6, Seed: 2}, BatchSize: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.History.Samples[1]; !s.Failed || res.History.NumOK() != 5 {
		t.Fatalf("NaN evaluation recorded as %+v (%d ok)", s, res.History.NumOK())
	}

	ctx, cancel := context.WithCancel(context.Background())
	opts := BatchTuneOptions{BatchSize: 2, TuneOptions: TuneOptions{Budget: 8, Seed: 2,
		OnSample: func(i int, _ Sample) {
			if i == 3 {
				cancel()
			}
		}}}
	res, err = TuneBatchContext(ctx, p, task, opts)
	if !errors.Is(err, context.Canceled) || res == nil || res.Checkpoint == nil || res.History.Len() != 4 {
		t.Fatalf("cancelled TuneBatchContext: result %+v, err %v", res, err)
	}
	resumed, err := ResumeTuningSession(p, task, opts.TuneOptions, res.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = resumed.RunBatchContext(context.Background(), 2, 0); err != nil || res.History.Len() != 8 {
		t.Fatalf("resumed batch run: %+v, err %v", res, err)
	}
}

func TestAnalyzeVariabilityAPI(t *testing.T) {
	h := &History{}
	cfg := map[string]interface{}{"x": 0.5}
	h.Append(Sample{Params: cfg, Y: 1.0})
	h.Append(Sample{Params: cfg, Y: 2.0})
	rep := AnalyzeVariability(h, 0.05)
	if len(rep.Flagged) != 1 {
		t.Fatalf("flagged %d", len(rep.Flagged))
	}
}

func TestRobustEvaluatorAPI(t *testing.T) {
	calls := 0
	inner := EvaluatorFunc(func(_, _ map[string]interface{}) (float64, error) {
		calls++
		return 4, nil
	})
	r := NewRobustEvaluator(inner, 3)
	y, err := r.Evaluate(nil, nil)
	if err != nil || y != 4 {
		t.Fatalf("y=%v err=%v", y, err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestSurrogateModelShareRoundTrip(t *testing.T) {
	c, d := crowdFixture(t)
	// Tune briefly to get a history, then store its surrogate.
	res, err := Tune(demoProblem(), map[string]interface{}{"t": 1.0}, TuneOptions{Budget: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	machine := MachineConfiguration{MachineName: "Cori", Partition: "haswell"}
	id, err := UploadSurrogateModelContext(context.Background(), c, d, map[string]interface{}{"t": 1.0}, res.History, machine, "public")
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("no id")
	}
	surr, err := DownloadSurrogateModelContext(context.Background(), c, d)
	if err != nil {
		t.Fatal(err)
	}
	mean, std := surr(map[string]interface{}{"x": 0.4})
	if math.IsNaN(mean) || std <= 0 {
		t.Fatalf("restored surrogate predicts %v ± %v", mean, std)
	}
	// The restored model should roughly agree with a fresh local fit
	// near observed data: evaluate at the best point and check the
	// prediction is in a plausible range of the history values.
	best, _ := res.History.Best()
	m2, _ := surr(best.Params)
	if m2 < best.Y-2 || m2 > best.Y+2 {
		t.Fatalf("restored model far off: %v vs best %v", m2, best.Y)
	}
}

// TestUploadSurrogateModelPayloadUnchanged pins the stored model
// payload: gp's portable JSON of a GP fitted with restart seed 1, the
// form DownloadSurrogateModelContext and other crowd clients read back.
func TestUploadSurrogateModelPayloadUnchanged(t *testing.T) {
	c, d := crowdFixture(t)
	res, err := Tune(demoProblem(), map[string]interface{}{"t": 1.0}, TuneOptions{Budget: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UploadSurrogateModelContext(context.Background(), c, d, nil, res.History, MachineConfiguration{}, "public"); err != nil {
		t.Fatal(err)
	}
	models, err := c.QueryModelsContext(context.Background(), d.TuningProblemName, 0)
	if err != nil || len(models) != 1 {
		t.Fatalf("stored models: %d, err %v", len(models), err)
	}
	X, Y := res.History.XY()
	ref, err := gp.Fit(X, Y, gp.Options{Categorical: d.ProblemSpace.ParameterSpace.CategoricalMask(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	// The server stores the payload as a document, which re-encodes it
	// with sorted keys; put the reference through the same round trip.
	var doc map[string]interface{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(models[0].Model, want) {
		t.Fatalf("stored model payload changed:\n got %s\nwant %s", models[0].Model, want)
	}
}

func TestDownloadSurrogateModelMissing(t *testing.T) {
	c, d := crowdFixture(t)
	if _, err := DownloadSurrogateModelContext(context.Background(), c, d); err == nil {
		t.Fatal("expected no-models error")
	}
}

func TestUploadSurrogateModelNeedsSamples(t *testing.T) {
	c, d := crowdFixture(t)
	h := &History{}
	h.Append(Sample{ParamU: []float64{0.5}, Params: map[string]interface{}{"x": 0.5}, Y: 1})
	if _, err := UploadSurrogateModelContext(context.Background(), c, d, nil, h, MachineConfiguration{}, "public"); err == nil {
		t.Fatal("expected too-few-samples error")
	}
}

func TestUploadSurrogateModelCancelled(t *testing.T) {
	c, d := crowdFixture(t)
	h := &History{}
	h.Append(Sample{ParamU: []float64{0.5}, Params: map[string]interface{}{"x": 0.5}, Y: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := UploadSurrogateModelContext(ctx, c, d, nil, h, MachineConfiguration{}, "public"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled before any fit", err)
	}
}

// cancelOnReply cancels a context once a reply to path has been read in
// full: the caller holds the reply, but its context is done.
type cancelOnReply struct {
	path   string
	cancel context.CancelFunc
}

func (t cancelOnReply) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err != nil || r.URL.Path != t.path {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	t.cancel()
	return resp, nil
}

func TestQueryUtilitiesCancelledAfterDownload(t *testing.T) {
	c, d := crowdFixture(t)
	seedCrowd(t, c, 0.8, 20, 5)
	for name, query := range map[string]func(context.Context, *CrowdClient) error{
		"QuerySurrogateModelContext": func(ctx context.Context, c *CrowdClient) error {
			_, err := QuerySurrogateModelContext(ctx, c, d, SurrogateOptions{})
			return err
		},
		"QuerySensitivityAnalysisContext": func(ctx context.Context, c *CrowdClient) error {
			_, err := QuerySensitivityAnalysisContext(ctx, c, d, SensitivityOptions{N: 64, NBoot: 4})
			return err
		},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancelling := ConnectWith(ConnectOptions{URL: c.BaseURL, APIKey: c.APIKey,
			Transport: cancelOnReply{path: crowd.PathFuncEvalQuery, cancel: cancel}})
		err := query(ctx, cancelling)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled once the download is in", name, err)
		}
	}
}
