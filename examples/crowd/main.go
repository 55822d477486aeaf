// Crowd-tuning round trip: start an in-process shared-database server,
// register two users, let one upload performance data, and let the
// other discover it through a meta description, transfer-learn from it,
// and upload the new results back — the full Fig. 1 workflow of the
// paper in one program.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net/http/httptest"

	gptunecrowd "gptunecrowd"
	"gptunecrowd/internal/apps/synth"
	"gptunecrowd/internal/crowd"
)

func main() {
	ctx := context.Background()

	// --- The shared database (gptune.lbl.gov's role).
	server := httptest.NewServer(crowd.NewServer())
	defer server.Close()
	fmt.Println("shared database listening at", server.URL)

	// --- User A collects data for their task and uploads it.
	alice := gptunecrowd.ConnectWith(gptunecrowd.ConnectOptions{URL: server.URL})
	if _, err := alice.RegisterContext(ctx, "alice", "alice@hpc.example"); err != nil {
		log.Fatal(err)
	}
	problem := synth.DemoProblem()
	aliceTask := map[string]interface{}{"t": 0.8}
	rng := rand.New(rand.NewSource(1))
	var evals []gptunecrowd.FuncEval
	for i := 0; i < 80; i++ {
		u := problem.ParamSpace.Canonicalize([]float64{rng.Float64()})
		cfg := problem.ParamSpace.Decode(u)
		y, err := problem.Evaluator.Evaluate(aliceTask, cfg)
		if err != nil {
			continue
		}
		evals = append(evals, gptunecrowd.FuncEval{
			TuningProblemName: "demo",
			TaskParams:        aliceTask,
			TuningParams:      cfg,
			Output:            y,
			Machine:           gptunecrowd.MachineConfiguration{MachineName: "Cori", Partition: "haswell", Nodes: 1},
			Accessibility:     "public",
		})
	}
	if _, err := alice.UploadContext(ctx, evals); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice uploaded %d samples for task t=0.8\n", len(evals))

	// --- User B arrives later with only a meta description.
	bob := gptunecrowd.ConnectWith(gptunecrowd.ConnectOptions{URL: server.URL})
	bobKey, err := bob.RegisterContext(ctx, "bob", "bob@hpc.example")
	if err != nil {
		log.Fatal(err)
	}
	metaJSON := fmt.Sprintf(`{
		"api_key": %q,
		"crowd_repo_url": %q,
		"tuning_problem_name": "demo",
		"problem_space": {
			"input_space": [{"name":"t","type":"real","lower_bound":0,"upper_bound":10}],
			"parameter_space": [{"name":"x","type":"real","lower_bound":0,"upper_bound":1}],
			"output_space": [{"name":"y","type":"real"}]
		},
		"configuration_space": {
			"machine_configurations": [{"machine_name":"Cori","partition":"haswell"}]
		},
		"machine_configuration": {"machine_name": "Cori", "partition": "haswell", "nodes": 1},
		"sync_crowd_repo": "yes"
	}`, bobKey, server.URL)
	desc, err := gptunecrowd.ParseMeta([]byte(metaJSON))
	if err != nil {
		log.Fatal(err)
	}

	downloaded, err := gptunecrowd.QueryFunctionEvaluationsContext(ctx, bob, desc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob downloaded %d samples via his meta description\n", len(downloaded))

	sources, err := gptunecrowd.SourcesFromEvals(problem.ParamSpace, downloaded)
	if err != nil {
		log.Fatal(err)
	}

	// --- Bob transfer-learns for his own task t=1.0 with 6 evaluations.
	bobTask := map[string]interface{}{"t": 1.0}
	res, err := gptunecrowd.Tune(problem, bobTask, gptunecrowd.TuneOptions{
		Budget:    6,
		Seed:      2,
		Algorithm: "Ensemble(proposed)",
		Sources:   sources,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob's ensemble-TLA best after 6 evals: y = %.4f at %v\n", res.BestY, res.BestParams)

	// --- And gives back: uploads his run for the next user.
	machineCfg := gptunecrowd.MachineConfiguration{MachineName: "Cori", Partition: "haswell", Nodes: 1}
	ids, err := gptunecrowd.UploadHistoryContext(ctx, bob, desc, bobTask, res.History, machineCfg, nil, "public")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bob uploaded %d new samples back to the crowd\n", len(ids))

	problems, err := bob.ProblemsContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("problems now in the shared database:", problems)
}
