package crowd

import (
	"net/http/httptest"
	"strings"
	"testing"

	"gptunecrowd/internal/envparse"
	"gptunecrowd/internal/historydb"
)

func testServer(t *testing.T) (*httptest.Server, *Client, *Client) {
	t.Helper()
	srv := httptest.NewServer(NewServer())
	t.Cleanup(srv.Close)
	alice := NewClient(srv.URL, "")
	if _, err := alice.Register("alice", "alice@example.com"); err != nil {
		t.Fatal(err)
	}
	bob := NewClient(srv.URL, "")
	if _, err := bob.Register("bob", "bob@example.com"); err != nil {
		t.Fatal(err)
	}
	return srv, alice, bob
}

func sampleEval(problem string, m int, runtime float64, access string) FuncEval {
	return FuncEval{
		TuningProblemName: problem,
		TaskParams:        map[string]interface{}{"m": m, "n": m},
		TuningParams:      map[string]interface{}{"mb": 4, "nb": 8},
		Output:            runtime,
		Machine:           MachineConfiguration{MachineName: "Cori", Partition: "haswell", Nodes: 8, CoresPerNode: 32},
		Software: []SoftwareConfiguration{
			{Name: "gcc", Version: envparse.Version{8, 3, 0}},
			{Name: "scalapack", Version: envparse.Version{2, 1, 0}},
		},
		Accessibility: access,
	}
}

func TestRegisterAndDuplicate(t *testing.T) {
	srv, _, _ := testServer(t)
	c := NewClient(srv.URL, "")
	if _, err := c.Register("alice", "x@y.z"); err == nil {
		t.Fatal("duplicate username should fail")
	}
	if _, err := c.Register("", ""); err == nil {
		t.Fatal("empty username should fail")
	}
}

func TestAuthRequired(t *testing.T) {
	srv, _, _ := testServer(t)
	anon := NewClient(srv.URL, "")
	if _, err := anon.Query(QueryRequest{TuningProblemName: "p"}); err == nil {
		t.Fatal("query without key should fail")
	}
	bad := NewClient(srv.URL, "wrong-key")
	if _, err := bad.Query(QueryRequest{TuningProblemName: "p"}); err == nil {
		t.Fatal("query with bad key should fail")
	}
}

func TestUploadQueryRoundTrip(t *testing.T) {
	_, alice, bob := testServer(t)
	ids, err := alice.Upload([]FuncEval{
		sampleEval("PDGEQRF", 10000, 3.5, "public"),
		sampleEval("PDGEQRF", 8000, 2.8, "public"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("got %d ids", len(ids))
	}
	evals, err := bob.Query(QueryRequest{TuningProblemName: "PDGEQRF"})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 2 {
		t.Fatalf("bob sees %d samples", len(evals))
	}
	if evals[0].Owner != "alice" {
		t.Fatalf("owner = %q", evals[0].Owner)
	}
	if evals[0].Machine.MachineName != "cori" {
		t.Fatalf("machine tag not normalized: %q", evals[0].Machine.MachineName)
	}
	if evals[0].Output != 3.5 {
		t.Fatalf("output = %v", evals[0].Output)
	}
}

func TestAccessControl(t *testing.T) {
	_, alice, bob := testServer(t)
	priv := sampleEval("secret", 1000, 1.0, "private")
	shared := sampleEval("secret", 1000, 2.0, "shared")
	shared.SharedWith = []string{"bob"}
	sharedNot := sampleEval("secret", 1000, 3.0, "shared")
	sharedNot.SharedWith = []string{"carol"}
	if _, err := alice.Upload([]FuncEval{priv, shared, sharedNot}); err != nil {
		t.Fatal(err)
	}
	mine, err := alice.Query(QueryRequest{TuningProblemName: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	if len(mine) != 3 {
		t.Fatalf("owner sees %d of 3", len(mine))
	}
	theirs, err := bob.Query(QueryRequest{TuningProblemName: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	if len(theirs) != 1 || theirs[0].Output != 2.0 {
		t.Fatalf("bob sees %d samples (want only the one shared with him)", len(theirs))
	}
	if theirs[0].SharedWith != nil {
		t.Fatal("shared_with metadata must be stripped for non-owners")
	}
}

func TestMachineConfigurationFilter(t *testing.T) {
	_, alice, _ := testServer(t)
	knl := sampleEval("p", 1000, 9.0, "public")
	knl.Machine = MachineConfiguration{MachineName: "Cori", Partition: "KNL", Nodes: 32}
	if _, err := alice.Upload([]FuncEval{sampleEval("p", 1000, 3.0, "public"), knl}); err != nil {
		t.Fatal(err)
	}
	// Filter by partition with non-canonical alias spelling.
	evals, err := alice.Query(QueryRequest{
		TuningProblemName: "p",
		Configuration: ConfigurationSpace{
			MachineConfigurations: []MachineConfiguration{{MachineName: "cori-haswell", Partition: "HSW"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 1 || evals[0].Output != 3.0 {
		t.Fatalf("partition filter returned %d samples", len(evals))
	}
	// Node-count filter.
	evals, err = alice.Query(QueryRequest{
		TuningProblemName: "p",
		Configuration: ConfigurationSpace{
			MachineConfigurations: []MachineConfiguration{{Nodes: 32}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 1 || evals[0].Output != 9.0 {
		t.Fatalf("node filter returned %d samples", len(evals))
	}
}

func TestSoftwareVersionRange(t *testing.T) {
	_, alice, _ := testServer(t)
	old := sampleEval("p", 1000, 1.0, "public")
	old.Software = []SoftwareConfiguration{{Name: "gcc", Version: envparse.Version{7, 5, 0}}}
	if _, err := alice.Upload([]FuncEval{sampleEval("p", 1000, 2.0, "public"), old}); err != nil {
		t.Fatal(err)
	}
	// The paper's example: gcc between 8.0.0 and 9.0.0.
	evals, err := alice.Query(QueryRequest{
		TuningProblemName: "p",
		Configuration: ConfigurationSpace{
			SoftwareConfigurations: []VersionRange{{
				Name:        "gcc",
				VersionFrom: envparse.Version{8, 0, 0},
				VersionTo:   envparse.Version{9, 0, 0},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 1 || evals[0].Output != 2.0 {
		t.Fatalf("version filter returned %d samples", len(evals))
	}
}

func TestUserConfigurationFilter(t *testing.T) {
	_, alice, bob := testServer(t)
	alice.Upload([]FuncEval{sampleEval("p", 1, 1.0, "public")})
	bob.Upload([]FuncEval{sampleEval("p", 1, 2.0, "public")})
	evals, err := alice.Query(QueryRequest{
		TuningProblemName: "p",
		Configuration:     ConfigurationSpace{UserConfigurations: []string{"bob"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 1 || evals[0].Owner != "bob" {
		t.Fatalf("user filter returned %+v", evals)
	}
}

func TestParamQueryFilter(t *testing.T) {
	_, alice, _ := testServer(t)
	alice.Upload([]FuncEval{
		sampleEval("p", 10000, 1.0, "public"),
		sampleEval("p", 6000, 2.0, "public"),
	})
	evals, err := alice.QueryWithParamFilter("p", ConfigurationSpace{},
		historydb.Range("task_parameters.m", 9000, 11000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 1 || evals[0].TaskParams["m"].(float64) != 10000 {
		t.Fatalf("param filter returned %d samples", len(evals))
	}
}

func TestQueryLimit(t *testing.T) {
	_, alice, _ := testServer(t)
	var batch []FuncEval
	for i := 0; i < 10; i++ {
		batch = append(batch, sampleEval("p", 1000+i, float64(i), "public"))
	}
	alice.Upload(batch)
	evals, err := alice.Query(QueryRequest{TuningProblemName: "p", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 3 {
		t.Fatalf("limit ignored: %d", len(evals))
	}
}

func TestProblemsList(t *testing.T) {
	_, alice, bob := testServer(t)
	alice.Upload([]FuncEval{sampleEval("zeta", 1, 1, "public")})
	alice.Upload([]FuncEval{sampleEval("alpha", 1, 1, "private")})
	problems, err := bob.Problems()
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || problems[0] != "zeta" {
		t.Fatalf("bob sees problems %v (private must be hidden)", problems)
	}
	mine, err := alice.Problems()
	if err != nil {
		t.Fatal(err)
	}
	if len(mine) != 2 || mine[0] != "alpha" {
		t.Fatalf("alice sees %v", mine)
	}
}

func TestUploadValidation(t *testing.T) {
	_, alice, _ := testServer(t)
	if _, err := alice.Upload(nil); err == nil {
		t.Fatal("empty upload should fail")
	}
	bad := sampleEval("", 1, 1, "public")
	if _, err := alice.Upload([]FuncEval{bad}); err == nil {
		t.Fatal("missing problem name should fail")
	}
	weird := sampleEval("p", 1, 1, "everyone")
	if _, err := alice.Upload([]FuncEval{weird}); err == nil || !strings.Contains(err.Error(), "accessibility") {
		t.Fatalf("bad accessibility should fail, got %v", err)
	}
}

func TestVersionRangeOpenEnds(t *testing.T) {
	sw := []SoftwareConfiguration{{Name: "gcc", Version: envparse.Version{10, 2, 0}}}
	if !(VersionRange{Name: "gcc"}).Matches(sw) {
		t.Fatal("open range should match")
	}
	if !(VersionRange{Name: "gcc", VersionFrom: envparse.Version{10, 0, 0}}).Matches(sw) {
		t.Fatal("from-only range should match")
	}
	if (VersionRange{Name: "gcc", VersionTo: envparse.Version{9, 0, 0}}).Matches(sw) {
		t.Fatal("to-range should exclude newer version")
	}
	if (VersionRange{Name: "icc"}).Matches(sw) {
		t.Fatal("absent software should not match")
	}
}

// TestUploadUnreadableSampleRefused: cores_per_node -9223372036854775700
// is stored as a float that rounds past int64, so no query could return
// it. The upload must refuse it rather than acknowledge a sample that
// every read skips.
func TestUploadUnreadableSampleRefused(t *testing.T) {
	_, alice, _ := testServer(t)
	fe := sampleEval("edge", 100, 1.0, "private")
	fe.Machine.CoresPerNode = -9223372036854775700
	ids, err := alice.Upload([]FuncEval{fe})
	if err == nil {
		got, qerr := alice.Query(QueryRequest{TuningProblemName: "edge"})
		if qerr != nil {
			t.Fatal(qerr)
		}
		if len(got) != len(ids) {
			t.Fatalf("upload acknowledged %d samples, the owner's query returns %d", len(ids), len(got))
		}
	}
	// The rest of the upload surface is unchanged: the same sample with
	// an ordinary core count is stored and returned.
	fe.Machine.CoresPerNode = 32
	if _, err := alice.Upload([]FuncEval{fe}); err != nil {
		t.Fatal(err)
	}
	got, err := alice.Query(QueryRequest{TuningProblemName: "edge"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Machine.CoresPerNode != 32 {
		t.Fatalf("query after a valid upload: %+v", got)
	}
}
