package crowd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"gptunecrowd/internal/envparse"
	"gptunecrowd/internal/historydb"
	"gptunecrowd/internal/suggest"
)

// The reference implementations below are the read paths as they were
// before they moved onto historydb.Scan: a deep-copying Find, then
// fromDocument on every document, then the filters. The handlers are
// held to them, result for result and in order.

// refDecodeAll is the front half of the old consensusCheck, hoisted so
// a batch decodes the (pre-batch) store once rather than per sample.
func refDecodeAll(t *testing.T, s *Server) []*FuncEval {
	docs, err := s.funcEvals().Find(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out []*FuncEval
	for _, d := range docs {
		if fe, err := fromDocument[FuncEval](d); err == nil {
			out = append(out, fe)
		}
	}
	return out
}

func refConsensus(store []*FuncEval, fe *FuncEval, user string) (recorded, agreed bool) {
	if fe.Failed {
		return false, false
	}
	var peers []float64
	for _, other := range store {
		if other.Failed || other.Owner == user {
			continue
		}
		if other.TuningProblemName != fe.TuningProblemName {
			continue
		}
		if !sameParams(other.TuningParams, fe.TuningParams) || !sameParams(other.TaskParams, fe.TaskParams) {
			continue
		}
		if math.IsNaN(other.Output) || math.IsInf(other.Output, 0) {
			continue
		}
		peers = append(peers, other.Output)
	}
	if len(peers) == 0 {
		return false, false
	}
	med := median(peers)
	scale := math.Max(math.Abs(med), 1e-9)
	return true, math.Abs(fe.Output-med) <= consensusRelTol*scale
}

func refQuery(t *testing.T, s *Server, req QueryRequest, user string) []FuncEval {
	var paramQuery historydb.Query
	if len(req.ParamQuery) > 0 {
		q, err := historydb.UnmarshalQuery(req.ParamQuery)
		if err != nil {
			t.Fatal(err)
		}
		paramQuery = q
	}
	docs, err := s.funcEvals().Find(historydb.And(historydb.Eq("tuning_problem_name", req.TuningProblemName)))
	if err != nil {
		t.Fatal(err)
	}
	var out []FuncEval
	for _, d := range docs {
		fe, err := fromDocument[FuncEval](d)
		if err != nil {
			continue
		}
		if !canSee(fe, user) {
			continue
		}
		if !matchesConfiguration(fe, req.Configuration) {
			continue
		}
		if paramQuery != nil && !paramQuery.Match(d) {
			continue
		}
		if fe.Owner != user {
			fe.SharedWith = nil
		}
		out = append(out, *fe)
		if req.Limit > 0 && len(out) >= req.Limit {
			break
		}
	}
	return out
}

func refProblems(t *testing.T, s *Server, user string) []string {
	docs, err := s.funcEvals().Find(nil)
	if err != nil {
		t.Fatal(err)
	}
	set := map[string]bool{}
	for _, d := range docs {
		fe, err := fromDocument[FuncEval](d)
		if err != nil || !canSee(fe, user) {
			continue
		}
		set[fe.TuningProblemName] = true
	}
	var out []string
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func refHistory(t *testing.T, s *Server, problem string, task map[string]interface{}) *suggest.Snapshot {
	policy, _ := s.policies.get(problem)
	docs, err := s.funcEvals().Find(historydb.Eq("tuning_problem_name", problem))
	if err != nil {
		t.Fatal(err)
	}
	want := suggest.TaskKey(task)
	snap := &suggest.Snapshot{Space: policy.Space}
	for _, d := range docs {
		fe, err := fromDocument[FuncEval](d)
		if err != nil {
			continue
		}
		if suggest.TaskKey(fe.TaskParams) != want {
			continue
		}
		snap.Version++
		if fe.Failed {
			continue
		}
		u, err := policy.Space.Encode(fe.TuningParams)
		if err != nil {
			continue
		}
		snap.X = append(snap.X, u)
		snap.Y = append(snap.Y, fe.Output)
	}
	return snap
}

const goldenProblems = 4

func goldenProblem(i int) string { return fmt.Sprintf("g%d", i) }

// goldenSample draws one sample from a small grid of configurations, so
// two uploaders keep re-measuring each other's points (consensus has
// peers), over every accessibility level, with failures, on varying
// machines and software stacks.
func goldenSample(rng *rand.Rand, other string) FuncEval {
	fe := FuncEval{
		TuningProblemName: goldenProblem(rng.Intn(goldenProblems)),
		TaskParams:        map[string]interface{}{"m": 1000 * (1 + rng.Intn(3))},
		TuningParams: map[string]interface{}{
			"x":   []float64{0.1, 0.3, 0.5, 0.7}[rng.Intn(4)],
			"n":   []int{1, 2, 4}[rng.Intn(3)],
			"alg": []string{"a", "b"}[rng.Intn(2)],
		},
		Output:  1 + rng.Float64()*[]float64{0.2, 3}[rng.Intn(2)],
		Failed:  rng.Intn(10) == 0,
		Machine: MachineConfiguration{MachineName: "Cori", Partition: "haswell", Nodes: 8, CoresPerNode: 32},
		Software: []SoftwareConfiguration{
			{Name: "gcc", Version: envparse.Version{7 + rng.Intn(4), 3, 0}},
		},
		Accessibility: []string{"public", "public", "private", "shared", ""}[rng.Intn(5)],
	}
	if rng.Intn(3) == 0 {
		fe.Machine = MachineConfiguration{MachineName: "summit", Partition: "GPU", Nodes: 4}
	}
	if fe.Accessibility == "shared" {
		fe.SharedWith = []string{[]string{other, "carol"}[rng.Intn(2)]}
	}
	return fe
}

// storedHashes fingerprints every stored document of a collection by id.
func storedHashes(c *historydb.Collection) map[string][32]byte {
	out := make(map[string][32]byte)
	c.Scan(context.Background(), nil, func(d historydb.Document) bool {
		b, _ := json.Marshal(d)
		out[d["_id"].(string)] = sha256.Sum256(b)
		return true
	})
	return out
}

func sameJSON(t *testing.T, what string, got, want interface{}) {
	t.Helper()
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if !bytes.Equal(g, w) {
		t.Fatalf("%s:\n got  %.600s\n want %.600s", what, g, w)
	}
}

// TestReadPathsMatchReference builds a 1000-document store through the
// upload API, then holds every read path to its reference: reputation
// counters after the fixed upload sequence, Query under every filter,
// Problems per user, History per (problem, task) — and checks that no
// handler changed a stored document while doing so.
func TestReadPathsMatchReference(t *testing.T) {
	srv, alice, bob := trustServer(t, Config{})
	carol := NewClient(alice.BaseURL, "")
	if _, err := carol.Register("carol", ""); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < goldenProblems; p++ {
		srv.RegisterProblemPolicy(goldenProblem(p), ProblemPolicy{Space: trustSpace(t)})
	}
	clients := map[string]*Client{"alice": alice, "bob": bob, "carol": carol}

	// (iii-a) The upload sequence, with the consensus verdict each
	// sample should get computed by the reference against the pre-batch
	// store.
	rng := rand.New(rand.NewSource(14))
	want := map[string]*Reputation{"alice": {}, "bob": {}}
	for batch := 0; batch < 50; batch++ {
		user, other := "alice", "bob"
		if batch%2 == 1 {
			user, other = "bob", "alice"
		}
		evals := make([]FuncEval, 20)
		store := refDecodeAll(t, srv)
		for i := range evals {
			evals[i] = goldenSample(rng, other)
			// The server scores the sample as it decodes it from the wire.
			var wire FuncEval
			b, _ := json.Marshal(evals[i])
			json.Unmarshal(b, &wire)
			if recorded, agreed := refConsensus(store, &wire, user); recorded && agreed {
				want[user].Agreements++
			} else if recorded {
				want[user].Disagreements++
			}
			want[user].Accepted++
		}
		ids, err := clients[user].Upload(evals)
		if err != nil || len(ids) != len(evals) {
			t.Fatalf("batch %d: %d ids, %v", batch, len(ids), err)
		}
	}
	if n := srv.funcEvals().Len(); n != 1000 {
		t.Fatalf("store holds %d documents, want 1000", n)
	}
	for user, w := range want {
		got := srv.Metrics().Reputation[user]
		w.Score = w.score()
		if got != *w {
			t.Fatalf("%s reputation %+v, reference %+v", user, got, *w)
		}
		if w.Agreements == 0 || w.Disagreements == 0 {
			t.Fatalf("%s: the sequence exercises only one consensus verdict: %+v", user, *w)
		}
	}

	before := storedHashes(srv.funcEvals())

	// (iii-b) Query, under every kind of filter, as owner, sharee and
	// stranger.
	mustQuery := func(q historydb.Query) []byte {
		b, err := historydb.MarshalQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	requests := []QueryRequest{
		{},
		{Limit: 7},
		{Limit: 1},
		{Configuration: ConfigurationSpace{MachineConfigurations: []MachineConfiguration{{MachineName: "Summit", Partition: "gpu"}}}},
		{Configuration: ConfigurationSpace{SoftwareConfigurations: []VersionRange{{Name: "gcc", VersionFrom: envparse.Version{8, 0, 0}, VersionTo: envparse.Version{9, 9, 9}}}}},
		{Configuration: ConfigurationSpace{UserConfigurations: []string{"bob"}}},
		{ParamQuery: mustQuery(historydb.Eq("task_parameters.m", 2000))},
		{ParamQuery: mustQuery(historydb.And(historydb.Range("tuning_parameters.x", 0.2, 0.6), historydb.Not(historydb.Eq("tuning_parameters.alg", "a")))), Limit: 11},
		{ParamQuery: mustQuery(historydb.Eq("failed", true))},
		{ParamQuery: mustQuery(historydb.Eq("tuning_problem_name", "g1"))}, // pins the field a second time, possibly to another value
		{ParamQuery: mustQuery(historydb.Eq("_id", "17"))},
		{
			Configuration: ConfigurationSpace{MachineConfigurations: []MachineConfiguration{{MachineName: "cori"}}, UserConfigurations: []string{"alice", "bob"}},
			ParamQuery:    mustQuery(historydb.In("task_parameters.m", 1000, 3000)),
			Limit:         40,
		},
	}
	returned := 0
	for user, c := range clients {
		for p := 0; p <= goldenProblems; p++ { // one problem past the last: nothing stored
			for i, req := range requests {
				req.TuningProblemName = goldenProblem(p)
				got, err := c.Query(req)
				if err != nil {
					t.Fatal(err)
				}
				ref := refQuery(t, srv, req, user)
				sameJSON(t, fmt.Sprintf("Query %d on %s as %s", i, req.TuningProblemName, user), got, ref)
				returned += len(got)
			}
		}
	}
	if returned < 1000 {
		t.Fatalf("the query matrix returned only %d samples in total", returned)
	}

	// (iii-c) Problems per user. dave sees only his own private problem
	// plus what is public.
	dave := NewClient(alice.BaseURL, "")
	if _, err := dave.Register("dave", ""); err != nil {
		t.Fatal(err)
	}
	clients["dave"] = dave
	hidden := sampleEval("only-dave", 1, 1, "private")
	if _, err := dave.Upload([]FuncEval{hidden}); err != nil {
		t.Fatal(err)
	}
	for user, c := range clients {
		got, err := c.Problems()
		if err != nil {
			t.Fatal(err)
		}
		ref := refProblems(t, srv, user)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("Problems as %s: %v, reference %v", user, got, ref)
		}
		if sees := len(got) == goldenProblems+1; sees != (user == "dave") {
			t.Fatalf("Problems as %s: %v", user, got)
		}
	}

	// (iii-d) History snapshots, including a task nobody measured.
	for p := 0; p < goldenProblems; p++ {
		for _, m := range []float64{1000, 2000, 3000, 4000} {
			task := map[string]interface{}{"m": m}
			got, err := storeSource{srv}.History(context.Background(), goldenProblem(p), task)
			if err != nil {
				t.Fatal(err)
			}
			ref := refHistory(t, srv, goldenProblem(p), task)
			if got.Version != ref.Version || !reflect.DeepEqual(got.X, ref.X) || !reflect.DeepEqual(got.Y, ref.Y) {
				t.Fatalf("History(%s, m=%v): version %d with %d points, reference version %d with %d", goldenProblem(p), m, got.Version, len(got.Y), ref.Version, len(ref.Y))
			}
			if (m == 4000) != (got.Version == 0) || (m != 4000 && uint64(len(got.Y)) >= got.Version) {
				t.Fatalf("History(%s, m=%v): version %d, %d points — failed samples should count in one and not the other", goldenProblem(p), m, got.Version, len(got.Y))
			}
		}
	}

	// (iv) The remaining handlers that read func_evals: suggest, the
	// model endpoints, quarantine release into the store, trust rebuild.
	// Then: every document stored before the reads is byte for byte what
	// it was — Scan hands out stored documents on the promise that
	// nobody writes to them.
	if _, err := alice.SuggestRemote(context.Background(), SuggestRequest{TuningProblemName: "g0", TaskParams: map[string]interface{}{"m": 1000}, Batch: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.UploadModelsContext(context.Background(), []SurrogateModelDoc{fakeModel("g0", "public"), fakeModel("g0", "private")}); err != nil {
		t.Fatal(err)
	}
	modelsBefore := storedHashes(srv.models())
	if models, err := bob.QueryModelsContext(context.Background(), "g0", 0); err != nil || len(models) != 1 {
		t.Fatalf("bob sees %d models of g0, %v", len(models), err)
	}
	outside := goldenSample(rng, "bob")
	outside.TuningParams["x"] = 7.0
	if rep, err := alice.UploadReportContext(context.Background(), []FuncEval{outside}); err != nil || len(rep.Quarantined) != 1 {
		t.Fatalf("out-of-space upload: %+v, %v", rep, err)
	}
	held, err := alice.QuarantineList(context.Background(), QuarantineListRequest{})
	if err != nil || len(held) != 1 {
		t.Fatalf("quarantine listing: %d, %v", len(held), err)
	}
	for i := 0; i < 2; i++ { // the second release replays the first
		if id, err := alice.QuarantineRelease(context.Background(), held[0].ID); err != nil || id != "1002" {
			t.Fatalf("release %d: id %q, %v", i, id, err)
		}
	}
	if err := srv.RebuildTrustState(); err != nil {
		t.Fatal(err)
	}
	if rep := srv.Metrics().Reputation["alice"]; rep.Accepted != want["alice"].Accepted+1 || rep.Quarantined != 1 || rep.Released != 1 {
		t.Fatalf("rebuilt alice reputation: %+v", rep)
	}
	after := storedHashes(srv.funcEvals())
	if len(after) != len(before)+2 {
		t.Fatalf("store went from %d to %d documents", len(before), len(after))
	}
	for id, h := range before {
		if after[id] != h {
			t.Fatalf("stored document %s changed while the handlers read it", id)
		}
	}
	if !reflect.DeepEqual(storedHashes(srv.models()), modelsBefore) {
		t.Fatal("a stored model changed while the handlers read it")
	}
}

// directStore fills func_evals without the HTTP layer: perProblem
// public samples for each named problem, tasks cycling over four values.
func directStore(tb testing.TB, srv *Server, owner string, perProblem int, problems ...string) {
	tb.Helper()
	var docs []historydb.Document
	for i := 0; i < perProblem; i++ {
		for _, p := range problems {
			fe := trustEval(map[string]interface{}{"x": float64(i%97) / 97, "n": 1 + i%16, "alg": "a"}, 1+float64(i%13))
			fe.TuningProblemName, fe.Owner, fe.Accessibility = p, owner, "public"
			fe.TaskParams = map[string]interface{}{"m": 1000 * (1 + i%4)}
			d, err := toDocument(&fe)
			if err != nil {
				tb.Fatal(err)
			}
			docs = append(docs, d)
		}
	}
	if _, err := srv.funcEvals().InsertMany(docs); err != nil {
		tb.Fatal(err)
	}
}

// TestStoreGrowthGuard counts documents examined instead of timing
// requests: what a request costs may depend on its own problem's
// partition, never on how much everybody else has stored.
func TestStoreGrowthGuard(t *testing.T) {
	srv, alice, bob := trustServer(t, Config{})
	srv.RegisterProblemPolicy("A", ProblemPolicy{Space: trustSpace(t)})
	directStore(t, srv, "bob", 5000, "B")
	directStore(t, srv, "bob", 3, "A")
	scanned := func(op string) int64 { return srv.metrics.docsScanned[op].Value() }

	base := scanned("upload")
	batch := []FuncEval{trustEval(goodParams(), 2), trustEval(goodParams(), 3)}
	batch[0].TuningProblemName, batch[1].TuningProblemName = "A", "A"
	if _, err := alice.Upload(batch); err != nil {
		t.Fatal(err)
	}
	if got := scanned("upload") - base; got != 2*3 {
		t.Fatalf("uploading 2 samples to A (3 stored) beside 5000 of B examined %d documents, want 6", got)
	}

	base = scanned("query")
	if got, err := alice.Query(QueryRequest{TuningProblemName: "A", Limit: 2}); err != nil || len(got) != 2 {
		t.Fatalf("query: %d, %v", len(got), err)
	}
	if got := scanned("query") - base; got != 2 {
		t.Fatalf("a limit-2 query of A examined %d documents, want 2", got)
	}

	base = scanned("suggest")
	if _, err := alice.SuggestRemote(context.Background(), SuggestRequest{TuningProblemName: "A", TaskParams: map[string]interface{}{"m": 1000}}); err != nil {
		t.Fatal(err)
	}
	if got := scanned("suggest") - base; got == 0 || got%5 != 0 || got > 50 {
		t.Fatalf("a suggest on A (5 stored) examined %d documents", got)
	}

	// Listings cost O(#problems): one visible sample per partition ends
	// that partition's scan.
	directStore(t, srv, "bob", 100, "C", "D", "E")
	for _, c := range []*Client{alice, bob} {
		base = scanned("problems")
		got, err := c.Problems()
		if err != nil || len(got) != 5 {
			t.Fatalf("problems: %v, %v", got, err)
		}
		if n := scanned("problems") - base; n != 5 {
			t.Fatalf("listing 5 problems over %d documents examined %d, want 5", srv.funcEvals().Len(), n)
		}
	}
	// A partition nobody else may see is walked to its end, and no further.
	private := trustEval(goodParams(), 1)
	private.TuningProblemName, private.Accessibility = "F", "private"
	if _, err := bob.Upload([]FuncEval{private, private, private}); err != nil {
		t.Fatal(err)
	}
	base = scanned("problems")
	if got, err := alice.Problems(); err != nil || len(got) != 5 {
		t.Fatalf("problems: %v, %v", got, err)
	}
	if n := scanned("problems") - base; n != 5+3 {
		t.Fatalf("listing beside a 3-sample private problem examined %d documents, want 8", n)
	}
}

// benchServer is a server with one registered user and a store of n
// documents spread over four problems, driven through ServeHTTP (JSON
// decode, middleware and handler; no sockets).
func benchServer(b *testing.B, n int) (*Server, string) {
	srv := NewServer()
	body, _ := json.Marshal(RegisterRequest{Username: "bench"})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/register", bytes.NewReader(body)))
	var resp RegisterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.APIKey == "" {
		b.Fatalf("register: %d %s", rec.Code, rec.Body.String())
	}
	directStore(b, srv, "seed", n/4, "b0", "b1", "b2", "b3")
	return srv, resp.APIKey
}

func benchPost(b *testing.B, srv *Server, key, path string, body []byte) {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("X-Api-Key", key)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		b.Fatalf("%s: %d %s", path, rec.Code, rec.Body.String())
	}
}

// BenchmarkUpload is one two-sample upload (validation, consensus
// against the problem's partition, insert) into stores of two sizes;
// the per-operation cost should follow the partition, not the store.
func BenchmarkUpload(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("store=%dk", n/1000), func(b *testing.B) {
			srv, key := benchServer(b, n)
			batch := []FuncEval{trustEval(goodParams(), 2), trustEval(goodParams(), 3)}
			batch[0].TuningProblemName, batch[1].TuningProblemName = "b1", "b1"
			body, _ := json.Marshal(UploadRequest{FuncEvals: batch})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, srv, key, "/api/v1/func_eval/upload", body)
			}
		})
	}
}

// BenchmarkQueryByProblem is the tuner's download: one problem, one
// task value, every sample decoded onto the wire.
func BenchmarkQueryByProblem(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("store=%dk", n/1000), func(b *testing.B) {
			srv, key := benchServer(b, n)
			filter, _ := historydb.MarshalQuery(historydb.Eq("task_parameters.m", 2000))
			body, _ := json.Marshal(QueryRequest{TuningProblemName: "b2", ParamQuery: filter})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPost(b, srv, key, "/api/v1/func_eval/query", body)
			}
		})
	}
}
