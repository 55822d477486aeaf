package crowd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"gptunecrowd/internal/envparse"
	"gptunecrowd/internal/historydb"
	"gptunecrowd/internal/replog"
	"gptunecrowd/internal/space"
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

// historyMatchesRef holds History on (problem, task) to refHistory and
// returns the snapshot.
func historyMatchesRef(t *testing.T, s *Server, problem string, task map[string]interface{}) *suggest.Snapshot {
	t.Helper()
	got, err := storeSource{s}.History(context.Background(), problem, task)
	if err != nil {
		t.Fatal(err)
	}
	ref := refHistory(t, s, problem, task)
	if got.Version != ref.Version || !reflect.DeepEqual(got.X, ref.X) || !reflect.DeepEqual(got.Y, ref.Y) {
		t.Fatalf("History(%s, %v): version %d, X %v, Y %v; reference version %d, X %v, Y %v", problem, task, got.Version, got.X, got.Y, ref.Version, ref.X, ref.Y)
	}
	return got
}

// TestHistoryEdgeTasks holds History to refHistory where the task key
// is easiest to get wrong: absent, null and empty tasks; -0 beside 0;
// a number beside its string; nested values; failed samples, malformed
// documents and parameters outside the space.
func TestHistoryEdgeTasks(t *testing.T) {
	srv := NewServer()
	srv.RegisterProblemPolicy("e", ProblemPolicy{Space: trustSpace(t)})
	nested := map[string]interface{}{"m": map[string]interface{}{"a": []interface{}{1.0, "b", nil}}}
	doc := func(task interface{}, edit func(historydb.Document)) historydb.Document {
		d := historydb.Document{"tuning_problem_name": "e", "owner": "alice", "accessibility": "public",
			"tuning_parameters": goodParams(), "evaluation_result": 2.5}
		if task != "absent" {
			d["task_parameters"] = task
		}
		if edit != nil {
			edit(d)
		}
		return d
	}
	m := func(v interface{}) map[string]interface{} { return map[string]interface{}{"m": v} }
	docs := []historydb.Document{
		doc("absent", nil), doc(nil, nil), doc(map[string]interface{}{}, nil),
		doc(m(math.Copysign(0, -1)), nil), doc(m(0), nil),
		doc(m(1000), nil), doc(m("1000"), nil), doc(nested, nil),
		doc(m(1000), func(d historydb.Document) { d["failed"] = true }),
		doc(m(1000), func(d historydb.Document) { d["owner"] = 7.0 }),
		doc(m(1000), func(d historydb.Document) {
			d["tuning_parameters"] = map[string]interface{}{"x": 0.5, "n": 4, "alg": "z"}
		}),
		doc(m(1000), func(d historydb.Document) { d["evaluation_result"] = "fast" }),
		doc("not a map", nil),
		doc(m(1000), func(d historydb.Document) { d["tuning_problem_name"] = "other" }),
		doc(m(1000), func(d historydb.Document) { delete(d, "tuning_problem_name") }),
	}
	if _, err := srv.funcEvals().InsertMany(docs); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		task             map[string]interface{}
		version, encoded int
	}{
		{nil, 3, 3},
		{map[string]interface{}{}, 3, 3},
		{m(math.Copysign(0, -1)), 1, 1},
		{m(0), 1, 1},
		{m(1000), 3, 1}, // one failed, one outside the space; owner 7 and result "fast" do not read
		{m(1000.0), 3, 1},
		{m("1000"), 1, 1},
		{nested, 1, 1},
		{m(2000), 0, 0},
	} {
		got := historyMatchesRef(t, srv, "e", tc.task)
		if got.Version != uint64(tc.version) || len(got.X) != tc.encoded {
			t.Errorf("History(e, %v): version %d with %d points, want %d with %d", tc.task, got.Version, len(got.X), tc.version, tc.encoded)
		}
	}
}

// loadParentDataDir opens the logs an older release's node wrote
// (internal/cluster/testdata/parent_pr20) into a fresh server.
func loadParentDataDir(t *testing.T) *Server {
	t.Helper()
	const fixtures = "../cluster/testdata/parent_pr20/"
	dir := t.TempDir()
	err := filepath.WalkDir(fixtures+"datadir", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		to := filepath.Join(dir, filepath.Base(filepath.Dir(path)), e.Name())
		if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	for _, name := range []string{"func_evals", "users"} {
		j := srv.Store().Collection(name).Journal()
		if err := j.Open(filepath.Join(dir, name), replog.Options{Name: name}); err != nil {
			t.Fatalf("open the parent's %s log: %v", name, err)
		}
		t.Cleanup(func() { j.Log().Close() })
	}
	if err := srv.RebuildUserIndex(); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestHistoryParentDataDir: every (problem, task) an older release
// stored reads back through History as through refHistory.
func TestHistoryParentDataDir(t *testing.T) {
	srv := loadParentDataDir(t)
	sp, err := space.New(space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1}, space.Param{Name: "y", Kind: space.Real, Lo: 0, Hi: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen, versions := map[string]bool{}, uint64(0)
	for _, fe := range refDecodeAll(t, srv) {
		key := fe.TuningProblemName + "\x1f" + suggest.TaskKey(fe.TaskParams)
		if seen[key] {
			continue
		}
		seen[key] = true
		srv.RegisterProblemPolicy(fe.TuningProblemName, ProblemPolicy{Space: sp})
		got := historyMatchesRef(t, srv, fe.TuningProblemName, fe.TaskParams)
		if len(got.X) == 0 {
			t.Errorf("History(%s, %v) encoded none of its %d samples", fe.TuningProblemName, fe.TaskParams, got.Version)
		}
		versions += got.Version
	}
	if len(seen) != 3 || versions != 11 {
		t.Fatalf("the parent's 11 samples read back as %d over %d (problem, task) pairs", versions, len(seen))
	}
}

// TestQueryParentDataDir: samples an older release's node wrote are
// served on the wire byte for byte as the fromDocument reference
// decodes them, to their owner and to a stranger, for every stored
// problem.
func TestQueryParentDataDir(t *testing.T) {
	srv := loadParentDataDir(t)
	key, err := os.ReadFile("../cluster/testdata/parent_pr20/api_key.txt")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	strangerKey, err := NewClient(ts.URL, "").Register("stranger", "")
	if err != nil {
		t.Fatal(err)
	}
	returned := 0
	for user, key := range map[string]string{"alice": string(key), "stranger": strangerKey} {
		for _, p := range srv.funcEvals().IndexValues() {
			req := QueryRequest{TuningProblemName: p.(string)}
			body, _ := json.Marshal(req)
			httpReq := httptest.NewRequest("POST", "/api/v1/func_eval/query", bytes.NewReader(body))
			httpReq.Header.Set("X-Api-Key", key)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httpReq)
			ref := refQuery(t, srv, req, user)
			want, _ := json.Marshal(QueryResponse{FuncEvals: ref})
			if got := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")); rec.Code != 200 || !bytes.Equal(got, want) {
				t.Fatalf("query %s as %s: %d\n got  %s\n want %s", req.TuningProblemName, user, rec.Code, got, want)
			}
			returned += len(ref)
		}
	}
	if returned != 2*11 {
		t.Fatalf("the parent's 11 samples came back %d times over two users", returned)
	}
}

// TestQueryAllocsPerSample pins what a query pays per returned sample:
// its software list and its shared_with list, plus the response slice's
// amortized growth. Measured 2.05 on this store (88.0 when every sample
// took the fromDocument round trip); bound 3, which one more allocation
// per sample (a decoded sample escaping to the heap) breaks.
func TestQueryAllocsPerSample(t *testing.T) {
	srv := NewServer()
	var docs []historydb.Document
	for i := 0; i < 256; i++ {
		fe := sampleEval("p", 1000*(1+i%4), 1+float64(i%13), []string{"public", "shared"}[i%2])
		fe.Owner, fe.SharedWith = "alice", []string{"bob"}
		d, err := toDocument(&fe)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, d)
	}
	if _, err := srv.funcEvals().InsertMany(docs); err != nil {
		t.Fatal(err)
	}
	req := &QueryRequest{TuningProblemName: "p"}
	n := 0
	allocs := testing.AllocsPerRun(20, func() {
		_, resp := srv.handleQuery(context.Background(), "alice", req)
		n = len(resp.(QueryResponse).FuncEvals)
	})
	if n != len(docs) {
		t.Fatalf("the query returned %d of %d samples", n, len(docs))
	}
	per := allocs / float64(n)
	if per > 3 {
		t.Fatalf("handleQuery allocates %.2f times per returned sample, bound 3", per)
	}
	t.Logf("%.2f allocations per returned sample", per)
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

	// A suggest miss syncs once (nothing uploads while it runs) and
	// examines its own task's samples: of A's 5, the 3 with m=1000. More
	// samples of A's other tasks do not change that.
	suggestScans := func(stored string) {
		t.Helper()
		base := scanned("suggest")
		if _, err := alice.SuggestRemote(context.Background(), SuggestRequest{TuningProblemName: "A", TaskParams: map[string]interface{}{"m": 1000}}); err != nil {
			t.Fatal(err)
		}
		if got := scanned("suggest") - base; got != 3 {
			t.Fatalf("a suggest miss on A's task m=1000 (3 of %s stored) examined %d documents, want 3", stored, got)
		}
	}
	suggestScans("5")
	var others []historydb.Document
	for i := 0; i < 5000; i++ {
		fe := trustEval(goodParams(), 2)
		fe.TuningProblemName, fe.Owner, fe.Accessibility = "A", "bob", "public"
		fe.TaskParams = map[string]interface{}{"m": 2000 + 1000*(i%3)}
		d, err := toDocument(&fe)
		if err != nil {
			t.Fatal(err)
		}
		others = append(others, d)
	}
	if _, err := srv.funcEvals().InsertMany(others); err != nil {
		t.Fatal(err)
	}
	srv.NotifyProblemAppend("A", len(others)) // far past the staleness bound: the next suggest misses
	suggestScans("5005")

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
