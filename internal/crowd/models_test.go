package crowd

import (
	"context"
	"encoding/json"
	"testing"
)

func fakeModel(problem, access string) SurrogateModelDoc {
	return SurrogateModelDoc{
		TuningProblemName: problem,
		TaskParams:        map[string]interface{}{"m": 10000},
		Machine:           MachineConfiguration{MachineName: "Cori", Partition: "haswell"},
		NumSamples:        100,
		Accessibility:     access,
		Model:             json.RawMessage(`{"kernel":"matern52","dim":1}`),
	}
}

func TestModelUploadQueryRoundTrip(t *testing.T) {
	_, alice, bob := testServer(t)
	ids, err := alice.UploadModelsContext(context.Background(), []SurrogateModelDoc{fakeModel("PDGEQRF", "public")})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	models, err := bob.QueryModelsContext(context.Background(), "PDGEQRF", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 {
		t.Fatalf("models = %d", len(models))
	}
	m := models[0]
	if m.Owner != "alice" || m.NumSamples != 100 {
		t.Fatalf("model = %+v", m)
	}
	if m.Machine.MachineName != "cori" {
		t.Fatal("machine tags must be normalized")
	}
	var payload map[string]interface{}
	if err := json.Unmarshal(m.Model, &payload); err != nil {
		t.Fatal(err)
	}
	if payload["kernel"] != "matern52" {
		t.Fatal("payload lost")
	}
}

func TestModelAccessControl(t *testing.T) {
	_, alice, bob := testServer(t)
	if _, err := alice.UploadModelsContext(context.Background(), []SurrogateModelDoc{fakeModel("secret", "private")}); err != nil {
		t.Fatal(err)
	}
	mine, err := alice.QueryModelsContext(context.Background(), "secret", 0)
	if err != nil || len(mine) != 1 {
		t.Fatalf("owner should see own private model: %d, %v", len(mine), err)
	}
	theirs, err := bob.QueryModelsContext(context.Background(), "secret", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(theirs) != 0 {
		t.Fatal("private model leaked")
	}
}

func TestModelUploadValidation(t *testing.T) {
	_, alice, _ := testServer(t)
	if _, err := alice.UploadModelsContext(context.Background(), nil); err == nil {
		t.Fatal("empty upload should fail")
	}
	bad := fakeModel("", "public")
	if _, err := alice.UploadModelsContext(context.Background(), []SurrogateModelDoc{bad}); err == nil {
		t.Fatal("missing problem name should fail")
	}
	noPayload := fakeModel("p", "public")
	noPayload.Model = nil
	if _, err := alice.UploadModelsContext(context.Background(), []SurrogateModelDoc{noPayload}); err == nil {
		t.Fatal("missing payload should fail")
	}
	weird := fakeModel("p", "everyone")
	if _, err := alice.UploadModelsContext(context.Background(), []SurrogateModelDoc{weird}); err == nil {
		t.Fatal("bad accessibility should fail")
	}
}

func TestModelQueryLimitAndMissingProblem(t *testing.T) {
	_, alice, _ := testServer(t)
	for i := 0; i < 5; i++ {
		if _, err := alice.UploadModelsContext(context.Background(), []SurrogateModelDoc{fakeModel("p", "public")}); err != nil {
			t.Fatal(err)
		}
	}
	models, err := alice.QueryModelsContext(context.Background(), "p", 2)
	if err != nil || len(models) != 2 {
		t.Fatalf("limit: %d, %v", len(models), err)
	}
	none, err := alice.QueryModelsContext(context.Background(), "unknown", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatal("unknown problem should be empty")
	}
	if _, err := alice.QueryModelsContext(context.Background(), "", 0); err == nil {
		t.Fatal("empty problem name should fail")
	}
}
