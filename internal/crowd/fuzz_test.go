package crowd

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"gptunecrowd/internal/historydb"
	"gptunecrowd/internal/space"
)

// fuzzServer returns a server plus a valid API key, for driving handlers
// through ServeHTTP without a network listener.
func fuzzServer(f *testing.F) (*Server, string) {
	srv := NewServer()
	body, _ := json.Marshal(RegisterRequest{Username: "fuzz"})
	req := httptest.NewRequest("POST", "/api/v1/register", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	var resp RegisterResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.APIKey == "" {
		f.Fatalf("fuzz setup: register failed: status=%d body=%s", rec.Code, rec.Body.String())
	}
	return srv, resp.APIKey
}

// post drives one request through the full middleware chain and checks
// the invariants every endpoint must hold for arbitrary input: no panic
// (the fuzzer catches those), never a 5xx (malformed input is the
// client's fault), and a response body that is itself valid JSON.
func fuzzPost(t *testing.T, srv *Server, path, apiKey string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, bytes.NewReader(body))
	if apiKey != "" {
		req.Header.Set("X-Api-Key", apiKey)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code >= 500 {
		t.Fatalf("%s: input %q produced %d: %s", path, body, rec.Code, rec.Body.String())
	}
	if !json.Valid(rec.Body.Bytes()) {
		t.Fatalf("%s: input %q produced non-JSON response %q", path, body, rec.Body.String())
	}
	return rec
}

func FuzzUploadDecode(f *testing.F) {
	srv, key := fuzzServer(f)
	f.Add([]byte(`{"func_evals":[{"tuning_problem_name":"p","tuning_parameters":{"x":1},"evaluation_result":1.5}]}`))
	f.Add([]byte(`{"batch_id":"b1","func_evals":[{"tuning_problem_name":"p","tuning_parameters":{},"evaluation_result":0}]}`))
	f.Add([]byte(`{"func_evals":[]}`))
	f.Add([]byte(`{"func_evals":[{"evaluation_result":"not a number"}]}`))
	f.Add([]byte(`{"func_evals":[{"tuning_problem_name":"p","tuning_parameters":{"x":{"deep":{"er":[1,2,3]}}},"evaluation_result":1e308}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := fuzzPost(t, srv, "/api/v1/func_eval/upload", key, body)
		if rec.Code == 200 {
			var resp UploadResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 upload with undecodable response: %v", err)
			}
			if len(resp.IDs)+len(resp.Quarantined) == 0 {
				t.Fatalf("200 upload neither stored nor quarantined anything for input %q", body)
			}
		}
	})
}

// FuzzValidateSample drives arbitrary upload bodies against a server
// with a registered problem policy, so the whole per-sample trust path
// (decode → structural checks → space validation → output checks →
// quarantine) runs on hostile input. Invariants on top of fuzzPost's:
// every sample of a 200 batch is either stored or quarantined with a
// known reason code and an in-range batch index.
func FuzzValidateSample(f *testing.F) {
	srv, key := fuzzServer(f)
	sp, err := space.New(
		space.Param{Name: "x", Kind: space.Real, Lo: 0, Hi: 1},
		space.Param{Name: "n", Kind: space.Integer, Lo: 1, Hi: 16},
		space.Param{Name: "alg", Kind: space.Categorical, Categories: []string{"a", "b"}},
	)
	if err != nil {
		f.Fatal(err)
	}
	srv.RegisterProblemPolicy("p", ProblemPolicy{
		Space:                 sp,
		RequirePositiveOutput: true,
		OutputLo:              1e-3,
		OutputHi:              1e4,
	})
	ok := `"tuning_problem_name":"p","tuning_parameters":{"x":0.5,"n":4,"alg":"a"}`
	f.Add([]byte(`{"func_evals":[{` + ok + `,"evaluation_result":1.5}]}`))
	f.Add([]byte(`{"func_evals":[{` + ok + `,"evaluation_result":-2}]}`))
	f.Add([]byte(`{"func_evals":[{` + ok + `,"evaluation_result":1e300}]}`))
	f.Add([]byte(`{"func_evals":[{` + ok + `,"evaluation_result":0.5,"failed":true}]}`))
	f.Add([]byte(`{"func_evals":[{"tuning_problem_name":"p","tuning_parameters":{"x":"half","n":4,"alg":"a"},"evaluation_result":1}]}`))
	f.Add([]byte(`{"func_evals":[{"tuning_problem_name":"p","tuning_parameters":{"x":5,"n":4,"alg":"a"},"evaluation_result":1}]}`))
	f.Add([]byte(`{"func_evals":[{"tuning_problem_name":"p","tuning_parameters":{"x":0.5,"n":4.5,"alg":"a"},"evaluation_result":1}]}`))
	f.Add([]byte(`{"func_evals":[{"tuning_problem_name":"p","tuning_parameters":{"x":0.5,"n":4,"alg":"z"},"evaluation_result":1}]}`))
	f.Add([]byte(`{"func_evals":[{"tuning_problem_name":"p","tuning_parameters":{"x":0.5,"alg":"a"},"evaluation_result":1}]}`))
	f.Add([]byte(`{"func_evals":[{"tuning_problem_name":"p","tuning_parameters":{"x":0.5,"n":4,"alg":"a","extra":1},"evaluation_result":1}]}`))
	f.Add([]byte(`{"func_evals":[{"_id":"d","tuning_problem_name":"p","evaluation_result":1},{"_id":"d","tuning_problem_name":"p","evaluation_result":2}]}`))
	f.Add([]byte(`{"func_evals":[{"tuning_problem_name":"other","tuning_parameters":{"whatever":true},"evaluation_result":1}]}`))
	known := make(map[QuarantineReason]bool)
	for _, r := range KnownQuarantineReasons() {
		known[r] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// The batch-size invariant only holds for non-idempotent
		// uploads: a reused batch_id replays the first outcome, whatever
		// the current body says.
		var req UploadRequest
		batchLen := -1
		if json.Unmarshal(body, &req) == nil && req.BatchID == "" {
			batchLen = len(req.FuncEvals)
		}
		rec := fuzzPost(t, srv, "/api/v1/func_eval/upload", key, body)
		if rec.Code != 200 {
			return
		}
		var resp UploadResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 upload with undecodable response: %v", err)
		}
		if batchLen >= 0 && len(resp.IDs)+len(resp.Quarantined) != batchLen {
			t.Fatalf("batch of %d: %d stored + %d quarantined", batchLen, len(resp.IDs), len(resp.Quarantined))
		}
		for _, q := range resp.Quarantined {
			if !known[q.Reason] {
				t.Fatalf("unknown quarantine reason %q for input %q", q.Reason, body)
			}
			if q.Index < 0 || (batchLen >= 0 && q.Index >= batchLen) {
				t.Fatalf("quarantine index %d out of range for batch of %d", q.Index, batchLen)
			}
		}
	})
}

func FuzzQueryDecode(f *testing.F) {
	srv, key := fuzzServer(f)
	// One stored sample so the match path (not just the decode path) runs.
	upload, _ := json.Marshal(UploadRequest{FuncEvals: []FuncEval{{
		TuningProblemName: "p",
		TuningParams:      map[string]interface{}{"x": 1.0},
		Output:            2.0,
	}}})
	req := httptest.NewRequest("POST", "/api/v1/func_eval/upload", bytes.NewReader(upload))
	req.Header.Set("X-Api-Key", key)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != 200 {
		f.Fatalf("fuzz setup: seed upload failed: %s", rec.Body.String())
	}

	f.Add([]byte(`{"tuning_problem_name":"p"}`))
	f.Add([]byte(`{"tuning_problem_name":"p","limit":1}`))
	f.Add([]byte(`{"tuning_problem_name":"p","param_query":{"op":"eq","field":"tuning_parameters.x","value":1}}`))
	f.Add([]byte(`{"tuning_problem_name":"p","param_query":{"op":"and","subs":[{"op":"range","field":"evaluation_result","lo":0,"hi":10}]}}`))
	f.Add([]byte(`{"tuning_problem_name":"p","param_query":{"op":"nope"}}`))
	f.Add([]byte(`{"tuning_problem_name":"p","param_query":[1,2]}`))
	f.Add([]byte(`{"tuning_problem_name":""}`))
	f.Add([]byte(`{"configuration_space":{"machine_configurations":[{"machine_name":"Cori","num_nodes":1}]}}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzPost(t, srv, "/api/v1/func_eval/query", key, body)
	})
}

func FuzzRegisterDecode(f *testing.F) {
	srv, _ := fuzzServer(f)
	f.Add([]byte(`{"username":"alice","email":"a@b.c"}`))
	f.Add([]byte(`{"username":""}`))
	f.Add([]byte(`{"username":12}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"username":" "}`))
	f.Add([]byte("{\"username\":\"a\\u0000b\"}"))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := fuzzPost(t, srv, "/api/v1/register", "", body)
		if rec.Code == 200 {
			var resp RegisterResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.APIKey == "" {
				t.Fatalf("200 register without usable API key: %s", rec.Body.String())
			}
		}
	})
}

// FuzzFuncEvalOf holds funcEvalOf to fromDocument[FuncEval], the decoder
// it replaces on the query path. Each body is read twice: as the upload
// decoder reads a sample, stored through toDocument, and as a stored
// document itself, so that any JSON value can sit under a canonical key.
// On both documents the two readers must accept or reject alike and,
// where they accept, put the same bytes on the wire.
func FuzzFuncEvalOf(f *testing.F) {
	f.Add([]byte(`{"tuning_problem_name":"p","task_parameters":{"m":1000},"tuning_parameters":{"x":0.5,"alg":"a"},"evaluation_result":1.5,"machine_configuration":{"machine_name":"cori","partition":"haswell","nodes":8,"cores_per_node":32},"software_configuration":[{"name":"gcc","version":[8,3,0],"source":"spack"}],"owner":"alice","accessibility":"shared","shared_with":["bob"]}`))
	f.Add([]byte(`{"_id":"7","tuning_problem_name":null,"task_parameters":null,"machine_configuration":null,"software_configuration":null,"shared_with":null}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var fe FuncEval
		if json.NewDecoder(bytes.NewReader(body)).Decode(&fe) == nil {
			d, err := toDocument(&fe)
			if err != nil {
				t.Fatalf("toDocument of a decoded sample: %v", err)
			}
			sameDecode(t, d)
		}
		var d historydb.Document
		if json.Unmarshal(body, &d) == nil && canonicalKeys(d) {
			sameDecode(t, d)
		}
	})
}

// sameDecode fails t unless funcEvalOf and fromDocument[FuncEval] agree
// on d.
func sameDecode(t *testing.T, d historydb.Document) {
	t.Helper()
	got, ok := funcEvalOf(d)
	want, err := fromDocument[FuncEval](d)
	if ok != (err == nil) {
		t.Fatalf("funcEvalOf ok=%v, fromDocument err=%v, on %v", ok, err, d)
	}
	if ok {
		sameJSON(t, "funcEvalOf against fromDocument", got, *want)
	}
}

// canonicalKeys reports whether no key of d, nor of an object the
// FuncEval decoder reads as a struct, is a case-folded spelling of a
// field's key other than the key itself. json.Unmarshal matches such
// keys, funcEvalOf reads only the canonical ones, and only toDocument,
// which writes the canonical ones, puts samples into the store.
func canonicalKeys(d historydb.Document) bool {
	ok := foldFree(d, FuncEval{})
	if m, isMap := d["machine_configuration"].(map[string]interface{}); isMap {
		ok = ok && foldFree(m, MachineConfiguration{})
	}
	sw, _ := d["software_configuration"].([]interface{})
	for _, e := range sw {
		if m, isMap := e.(map[string]interface{}); isMap {
			ok = ok && foldFree(m, SoftwareConfiguration{})
		}
	}
	return ok
}

func foldFree(m map[string]interface{}, of interface{}) bool {
	typ := reflect.TypeOf(of)
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		for k := range m {
			if k != name && strings.EqualFold(k, name) {
				return false
			}
		}
	}
	return true
}
