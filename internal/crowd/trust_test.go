package crowd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"testing"

	"gptunecrowd/internal/replog"
	"gptunecrowd/internal/space"
)

func trustSpace(t *testing.T) *space.Space {
	t.Helper()
	sp, err := space.New(
		space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "n", Kind: space.Integer, Lo: 1, Hi: 16},
		space.Param{Name: "alg", Kind: space.Categorical, Categories: []string{"a", "b"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// trustServer is testServer with access to the *Server (policies,
// metrics) and a configurable Config.
func trustServer(t *testing.T, cfg Config) (*Server, *Client, *Client) {
	t.Helper()
	srv := NewServerWith(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	alice := NewClient(ts.URL, "")
	if _, err := alice.Register("alice", ""); err != nil {
		t.Fatal(err)
	}
	bob := NewClient(ts.URL, "")
	if _, err := bob.Register("bob", ""); err != nil {
		t.Fatal(err)
	}
	return srv, alice, bob
}

func goodParams() map[string]interface{} {
	return map[string]interface{}{"x": 0.5, "n": 4, "alg": "a"}
}

func trustEval(params map[string]interface{}, y float64) FuncEval {
	return FuncEval{
		TuningProblemName: "p",
		TaskParams:        map[string]interface{}{"m": 1000},
		TuningParams:      params,
		Output:            y,
	}
}

func TestValidateSampleTable(t *testing.T) {
	sp := trustSpace(t)
	policy := ProblemPolicy{Space: sp, RequirePositiveOutput: true, OutputLo: 1e-3, OutputHi: 1e4}
	override := func(fe FuncEval, k string, v interface{}) FuncEval {
		params := make(map[string]interface{})
		for key, val := range fe.TuningParams {
			params[key] = val
		}
		params[k] = v
		fe.TuningParams = params
		return fe
	}
	base := trustEval(goodParams(), 1.5)
	cases := []struct {
		name string
		fe   FuncEval
		want QuarantineReason
	}{
		{"valid", base, ""},
		{"nan output", trustEval(goodParams(), math.NaN()), ReasonNonFiniteOutput},
		{"inf output", trustEval(goodParams(), math.Inf(1)), ReasonNonFiniteOutput},
		{"non-positive output", trustEval(goodParams(), -1), ReasonNonPositiveOutput},
		{"output above range", trustEval(goodParams(), 1e9), ReasonOutputOutOfRange},
		{"real as string", override(base, "x", "half"), ReasonBadParamType},
		{"real NaN", override(base, "x", math.NaN()), ReasonBadParamType},
		{"real out of range", override(base, "x", 5.0), ReasonParamOutOfRange},
		{"non-integral integer", override(base, "n", 4.5), ReasonBadParamType},
		{"integer out of range", override(base, "n", 16), ReasonParamOutOfRange},
		{"unknown category", override(base, "alg", "z"), ReasonUnknownCategory},
		{"category as number", override(base, "alg", 3), ReasonBadParamType},
		{"extra param", override(base, "extra", 1), ReasonUnknownParam},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, detail := validateSample(&tc.fe, policy, true)
			if got != tc.want {
				t.Fatalf("got (%q, %q), want reason %q", got, detail, tc.want)
			}
		})
	}

	t.Run("missing param", func(t *testing.T) {
		fe := trustEval(map[string]interface{}{"x": 0.5, "alg": "a"}, 1.5)
		if got, _ := validateSample(&fe, policy, true); got != ReasonMissingParam {
			t.Fatalf("got %q, want %q", got, ReasonMissingParam)
		}
	})
	t.Run("failed sample skips output checks", func(t *testing.T) {
		fe := trustEval(goodParams(), -1e9)
		fe.Failed = true
		if got, detail := validateSample(&fe, policy, true); got != "" {
			t.Fatalf("failed sample quarantined: %q %q", got, detail)
		}
	})
	t.Run("failed sample still validates params", func(t *testing.T) {
		fe := override(base, "x", 5.0)
		fe.Failed = true
		if got, _ := validateSample(&fe, policy, true); got != ReasonParamOutOfRange {
			t.Fatalf("got %q, want %q", got, ReasonParamOutOfRange)
		}
	})
	t.Run("no policy checks only finiteness", func(t *testing.T) {
		fe := trustEval(map[string]interface{}{"anything": "goes"}, -1e300)
		if got, _ := validateSample(&fe, ProblemPolicy{}, false); got != "" {
			t.Fatalf("unregistered problem quarantined: %q", got)
		}
		fe.Output = math.NaN()
		if got, _ := validateSample(&fe, ProblemPolicy{}, false); got != ReasonNonFiniteOutput {
			t.Fatalf("got %q, want %q", got, ReasonNonFiniteOutput)
		}
	})
}

func TestUploadQuarantinePerSample(t *testing.T) {
	srv, alice, _ := trustServer(t, Config{})
	srv.RegisterProblemPolicy("p", ProblemPolicy{
		Space: trustSpace(t), RequirePositiveOutput: true, OutputLo: 1e-3, OutputHi: 1e4,
	})
	failed := trustEval(goodParams(), 0)
	failed.Failed = true
	batch := []FuncEval{
		trustEval(goodParams(), 1.5),                                         // stored
		trustEval(goodParams(), 1e9),                                         // quarantined: out of range
		trustEval(map[string]interface{}{"x": 5.0, "n": 4, "alg": "a"}, 2.0), // quarantined: param range
		failed, // stored: failed samples carry no measurement
	}
	resp, err := alice.UploadReportContext(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 2 {
		t.Fatalf("stored %d samples, want 2 (%+v)", len(resp.IDs), resp)
	}
	if len(resp.Quarantined) != 2 ||
		resp.Quarantined[0].Index != 1 || resp.Quarantined[0].Reason != ReasonOutputOutOfRange ||
		resp.Quarantined[1].Index != 2 || resp.Quarantined[1].Reason != ReasonParamOutOfRange {
		t.Fatalf("quarantine report: %+v", resp.Quarantined)
	}
	stored, err := alice.Query(QueryRequest{TuningProblemName: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 2 {
		t.Fatalf("query returned %d samples, want 2", len(stored))
	}
	m := srv.Metrics()
	if m.SamplesAccepted != 2 || m.SamplesQuarantined != 2 {
		t.Fatalf("metrics: accepted %d quarantined %d", m.SamplesAccepted, m.SamplesQuarantined)
	}
	if m.Quarantine.Total != 2 || m.Quarantine.Held != 2 || m.Quarantine.Released != 0 {
		t.Fatalf("quarantine gauges: %+v", m.Quarantine)
	}
	rep := m.Reputation["alice"]
	if rep.Accepted != 2 || rep.Quarantined != 2 {
		t.Fatalf("alice reputation: %+v", rep)
	}
}

func TestUploadDuplicateIDsRejected(t *testing.T) {
	srv, alice, _ := trustServer(t, Config{})
	a := trustEval(goodParams(), 1.0)
	a.ID = "dup"
	b := trustEval(goodParams(), 2.0)
	b.ID = "dup"
	_, err := alice.Upload([]FuncEval{a, b})
	if err == nil {
		t.Fatal("duplicate ids accepted")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "duplicate_ids" {
		t.Fatalf("want typed duplicate_ids error, got %v", err)
	}
	if stored, _ := alice.Query(QueryRequest{TuningProblemName: "p"}); len(stored) != 0 {
		t.Fatalf("rejected batch left %d samples behind", len(stored))
	}
	if m := srv.Metrics(); m.SamplesAccepted != 0 || m.SamplesQuarantined != 0 {
		t.Fatalf("rejected batch counted samples: %+v", m)
	}
}

func TestDuplicateIDErrorMessage(t *testing.T) {
	dup := checkDuplicateIDs([]FuncEval{{ID: "a"}, {ID: ""}, {ID: ""}, {ID: "a"}})
	if dup == nil || dup.ID != "a" || len(dup.Indices) != 2 || dup.Indices[0] != 0 || dup.Indices[1] != 3 {
		t.Fatalf("checkDuplicateIDs: %+v", dup)
	}
	if dup.Error() == "" {
		t.Fatal("empty error message")
	}
	if d := checkDuplicateIDs([]FuncEval{{ID: ""}, {ID: ""}}); d != nil {
		t.Fatalf("empty ids flagged as duplicates: %+v", d)
	}
}

func TestQuarantineReleaseLifecycle(t *testing.T) {
	srv, alice, _ := trustServer(t, Config{})
	srv.RegisterProblemPolicy("p", ProblemPolicy{OutputLo: -100, OutputHi: 100})
	resp, err := alice.UploadReportContext(context.Background(), []FuncEval{trustEval(goodParams(), 1e6)})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.IDs) != 0 || len(resp.Quarantined) != 1 {
		t.Fatalf("upload outcome: %+v", resp)
	}

	ctx := context.Background()
	items, err := alice.QuarantineList(ctx, QuarantineListRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Uploader != "alice" || items[0].Reason != ReasonOutputOutOfRange || items[0].Released {
		t.Fatalf("quarantine listing: %+v", items)
	}
	if filtered, _ := alice.QuarantineList(ctx, QuarantineListRequest{Reason: string(ReasonNonFiniteOutput)}); len(filtered) != 0 {
		t.Fatalf("reason filter matched %d items", len(filtered))
	}

	feID, err := alice.QuarantineRelease(ctx, items[0].ID)
	if err != nil || feID == "" {
		t.Fatalf("release: id=%q err=%v", feID, err)
	}
	stored, err := alice.Query(QueryRequest{TuningProblemName: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 || stored[0].Output != 1e6 {
		t.Fatalf("released sample not queryable: %+v", stored)
	}
	m := srv.Metrics()
	if m.Quarantine.Held != 0 || m.Quarantine.Released != 1 || m.Quarantine.Total != 1 {
		t.Fatalf("gauges after release: %+v", m.Quarantine)
	}
	if rep := m.Reputation["alice"]; rep.Released != 1 {
		t.Fatalf("alice reputation after release: %+v", rep)
	}

	// Idempotent replay: same func_eval id, no second insert.
	again, err := alice.QuarantineRelease(ctx, items[0].ID)
	if err != nil || again != feID {
		t.Fatalf("re-release: id=%q err=%v (want %q)", again, err, feID)
	}
	if stored, _ := alice.Query(QueryRequest{TuningProblemName: "p"}); len(stored) != 1 {
		t.Fatalf("re-release duplicated the sample: %d stored", len(stored))
	}

	// The released item stays out of the default listing but shows with
	// IncludeReleased.
	if held, _ := alice.QuarantineList(ctx, QuarantineListRequest{}); len(held) != 0 {
		t.Fatalf("released item still listed as held: %+v", held)
	}
	all, err := alice.QuarantineList(ctx, QuarantineListRequest{IncludeReleased: true})
	if err != nil || len(all) != 1 || !all[0].Released || all[0].FuncEvalID != feID {
		t.Fatalf("IncludeReleased listing: %+v err=%v", all, err)
	}

	// Unknown id is a 404, not a quiet success.
	if _, err := alice.QuarantineRelease(ctx, "no-such-id"); err == nil {
		t.Fatal("releasing unknown id succeeded")
	}
}

// TestQuarantineListFilters: reason, limit and include_released
// combine — every listing is the full one, filtered and then cut at the
// limit, in store order.
func TestQuarantineListFilters(t *testing.T) {
	srv, alice, _ := trustServer(t, Config{})
	srv.RegisterProblemPolicy("p", ProblemPolicy{Space: trustSpace(t), OutputLo: -100, OutputHi: 100})
	outOfSpace := map[string]interface{}{"x": 5.0, "n": 4, "alg": "a"}
	var batch []FuncEval
	for i := 0; i < 4; i++ {
		batch = append(batch, trustEval(goodParams(), 1e6+float64(i)), trustEval(outOfSpace, float64(i)))
	}
	if resp, err := alice.UploadReportContext(context.Background(), batch); err != nil || len(resp.Quarantined) != len(batch) {
		t.Fatalf("upload: %+v, %v", resp, err)
	}
	ctx := context.Background()
	all, err := alice.QuarantineList(ctx, QuarantineListRequest{IncludeReleased: true})
	if err != nil || len(all) != len(batch) {
		t.Fatalf("full listing: %d items, %v", len(all), err)
	}
	// Release the first and the third output_out_of_range item, so a
	// held-only listing must skip the very first stored document.
	for _, i := range []int{0, 4} {
		if all[i].Reason != ReasonOutputOutOfRange {
			t.Fatalf("item %d: reason %s", i, all[i].Reason)
		}
		if _, err := alice.QuarantineRelease(ctx, all[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	if all, err = alice.QuarantineList(ctx, QuarantineListRequest{IncludeReleased: true}); err != nil {
		t.Fatal(err)
	}
	for _, include := range []bool{false, true} {
		for _, limit := range []int{0, 1, 2, 3} {
			req := QuarantineListRequest{Reason: string(ReasonOutputOutOfRange), IncludeReleased: include, Limit: limit}
			want := []QuarantinedSample{}
			for _, it := range all {
				if it.Reason == ReasonOutputOutOfRange && (include || !it.Released) && (limit == 0 || len(want) < limit) {
					want = append(want, it)
				}
			}
			got, err := alice.QuarantineList(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			sameJSON(t, fmt.Sprintf("listing %+v", req), got, want)
			n := 2 // output_out_of_range items still held
			if include {
				n = 4
			}
			if limit > 0 {
				n = min(n, limit)
			}
			if len(got) != n {
				t.Fatalf("listing %+v: %d items, want %d", req, len(got), n)
			}
		}
	}
}

func TestQuarantineAdminGate(t *testing.T) {
	srv, alice, bob := trustServer(t, Config{AdminUsers: []string{"alice"}})
	srv.RegisterProblemPolicy("p", ProblemPolicy{OutputLo: -1, OutputHi: 1})
	if _, err := alice.UploadReportContext(context.Background(), []FuncEval{trustEval(goodParams(), 50)}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := bob.QuarantineList(ctx, QuarantineListRequest{}); err == nil {
		t.Fatal("non-admin listed the quarantine")
	}
	items, err := alice.QuarantineList(ctx, QuarantineListRequest{})
	if err != nil || len(items) != 1 {
		t.Fatalf("admin listing: %v err=%v", items, err)
	}
	if _, err := bob.QuarantineRelease(ctx, items[0].ID); err == nil {
		t.Fatal("non-admin released a sample")
	}
	if _, err := alice.QuarantineRelease(ctx, items[0].ID); err != nil {
		t.Fatalf("admin release failed: %v", err)
	}
}

// TestQuarantineReleaseJournalFailure: when the journal append that
// marks a sample released fails, nothing durable records the release,
// so the handler must not answer 200.
func TestQuarantineReleaseJournalFailure(t *testing.T) {
	srv, alice, _ := trustServer(t, Config{})
	alice.MaxRetries = -1
	if err := srv.quarantine().Journal().Open(t.TempDir(), replog.Options{}); err != nil {
		t.Fatal(err)
	}
	srv.RegisterProblemPolicy("p", ProblemPolicy{OutputLo: -1, OutputHi: 1})
	if _, err := alice.UploadReportContext(context.Background(), []FuncEval{trustEval(goodParams(), 50)}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	items, err := alice.QuarantineList(ctx, QuarantineListRequest{})
	if err != nil || len(items) != 1 {
		t.Fatalf("listing: %v err=%v", items, err)
	}
	srv.quarantine().Journal().Log().Close() // the next append fails

	_, err = alice.QuarantineRelease(ctx, items[0].ID)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode < 500 {
		t.Fatalf("release with a failed journal answered %v, want a 5xx", err)
	}
	if held, _ := alice.QuarantineList(ctx, QuarantineListRequest{}); len(held) != 1 || held[0].Released {
		t.Fatalf("sample marked released without a journal record: %+v", held)
	}
}

func TestReputationConsensus(t *testing.T) {
	srv, alice, bob := trustServer(t, Config{})
	carol := NewClient(alice.BaseURL, "")
	if _, err := carol.Register("carol", ""); err != nil {
		t.Fatal(err)
	}

	cfg := trustEval(goodParams(), 10.0)
	if _, err := alice.Upload([]FuncEval{cfg}); err != nil {
		t.Fatal(err)
	}
	// Bob measures the same configuration and lands near alice: agreement.
	near := trustEval(goodParams(), 10.5)
	if _, err := bob.Upload([]FuncEval{near}); err != nil {
		t.Fatal(err)
	}
	// Carol reports a wildly different value for the same configuration:
	// disagreement (but still structurally valid, so it is stored).
	far := trustEval(goodParams(), 1000)
	if _, err := carol.Upload([]FuncEval{far}); err != nil {
		t.Fatal(err)
	}

	m := srv.Metrics()
	if rep := m.Reputation["bob"]; rep.Agreements != 1 || rep.Disagreements != 0 {
		t.Fatalf("bob consensus: %+v", rep)
	}
	if rep := m.Reputation["carol"]; rep.Agreements != 0 || rep.Disagreements != 1 {
		t.Fatalf("carol consensus: %+v", rep)
	}
	if m.Reputation["carol"].Score >= m.Reputation["bob"].Score {
		t.Fatalf("carol (%v) should score below bob (%v)",
			m.Reputation["carol"].Score, m.Reputation["bob"].Score)
	}
	// A different configuration has no peers: no consensus recorded.
	other := trustEval(map[string]interface{}{"x": 0.9, "n": 2, "alg": "b"}, 3.0)
	if _, err := alice.Upload([]FuncEval{other}); err != nil {
		t.Fatal(err)
	}
	if rep := srv.Metrics().Reputation["alice"]; rep.Agreements != 0 || rep.Disagreements != 0 {
		t.Fatalf("alice consensus on unshared config: %+v", rep)
	}
}

func TestRebuildTrustState(t *testing.T) {
	srv, alice, bob := trustServer(t, Config{})
	srv.RegisterProblemPolicy("p", ProblemPolicy{OutputLo: -100, OutputHi: 100})
	if _, err := alice.UploadReportContext(context.Background(), []FuncEval{
		trustEval(goodParams(), 1.0),
		trustEval(goodParams(), 1e7),
		trustEval(goodParams(), 2e7),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Upload([]FuncEval{trustEval(goodParams(), 1.2)}); err != nil {
		t.Fatal(err)
	}
	items, err := alice.QuarantineList(context.Background(), QuarantineListRequest{})
	if err != nil || len(items) != 2 {
		t.Fatalf("listing: %v err=%v", items, err)
	}
	if _, err := alice.QuarantineRelease(context.Background(), items[0].ID); err != nil {
		t.Fatal(err)
	}

	before := srv.Metrics()
	if err := srv.RebuildTrustState(); err != nil {
		t.Fatal(err)
	}
	after := srv.Metrics()
	if after.Quarantine.Total != before.Quarantine.Total ||
		after.Quarantine.Held != before.Quarantine.Held ||
		after.Quarantine.Released != before.Quarantine.Released {
		t.Fatalf("rebuild drifted gauges: before %+v after %+v", before.Quarantine, after.Quarantine)
	}
	aliceRep := after.Reputation["alice"]
	if aliceRep.Quarantined != 2 || aliceRep.Released != 1 {
		t.Fatalf("rebuilt alice reputation: %+v", aliceRep)
	}
	// The released sample is in func_evals now, so the rebuilt accept
	// count includes it: 1 original + 1 released.
	if aliceRep.Accepted != 2 {
		t.Fatalf("rebuilt alice accepted %d, want 2", aliceRep.Accepted)
	}
	if bobRep := after.Reputation["bob"]; bobRep.Accepted != 1 || bobRep.Quarantined != 0 {
		t.Fatalf("rebuilt bob reputation: %+v", bobRep)
	}
}
