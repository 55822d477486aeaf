package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/historydb"
	"gptunecrowd/internal/space"
)

// mixHot is the small warm problem the mix's suggest operations hit.
const mixHot = "mix-hot"

func mixProblem(i int) string { return fmt.Sprintf("mix-%d", i) }

// mixOp is one operation of the seeded sequence.
type mixOp struct {
	kind    string // "upload", "query", "problems", "suggest"
	problem int
	task    int
	samples []crowd.FuncEval // upload payload
}

// mixBlock is the mix in its smallest whole numbers: of every 20
// operations 7 are two-sample uploads, 7 queries filtered by problem
// and task, 2 problem listings and 4 suggests (35/35/10/20 %).
var mixBlock = []string{
	"upload", "upload", "upload", "upload", "upload", "upload", "upload",
	"query", "query", "query", "query", "query", "query", "query",
	"problems", "problems",
	"suggest", "suggest", "suggest", "suggest",
}

// mixSequence draws the operation sequence from one seed: block after
// block of the exact mix, each in its own shuffled order, so every seed
// sends the same proportions and only order, targets and payloads
// differ. repo_mixed and cluster_mixed consume the identical sequence,
// so their difference is the topology alone.
func mixSequence(sc scale, seed int64, n int) []mixOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]mixOp, 0, n+len(mixBlock))
	for len(ops) < n {
		for _, j := range rng.Perm(len(mixBlock)) {
			op := mixOp{kind: mixBlock[j], problem: rng.Intn(sc.mixProblems), task: rng.Intn(sc.mixTasks)}
			if op.kind == "upload" {
				op.samples = randomSamples(rng, mixProblem(op.problem), taskParams(op.task), 2)
			}
			ops = append(ops, op)
		}
	}
	return ops[:n]
}

// mixFixture is repo_mixed and cluster_mixed: a pre-seeded repository
// taking writes beside reads.
type mixFixture struct {
	d    *deployment
	sc   scale
	ops  []mixOp
	next atomic.Int64 // position in ops; keeps advancing across windows

	hotHistory *pointSet

	mu   sync.Mutex
	want []map[string]bool // per problem: seeded plus acknowledged document ids
}

func setupMixed(deploy func(cfg crowd.Config, sp *space.Space, problems []string, sc scale) (*deployment, error)) func(sc scale, seed int64) (fixture, error) {
	return func(sc scale, seed int64) (fixture, error) {
		problems := []string{mixHot}
		for i := 0; i < sc.mixProblems; i++ {
			problems = append(problems, mixProblem(i))
		}
		d, err := deploy(crowd.Config{SuggestSeed: seed}, unitSquare(), problems, sc)
		if err != nil {
			return nil, err
		}
		f := &mixFixture{d: d, sc: sc, hotHistory: newPointSet(), want: make([]map[string]bool, sc.mixProblems)}
		if err := f.seed(seed); err != nil {
			d.close()
			return nil, err
		}
		f.ops = mixSequence(sc, seed+1, 1<<14)
		return f, nil
	}
}

// seed loads the store through the upload API in one batch, records
// which documents each problem starts with, and warms the hot model.
func (f *mixFixture) seed(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	hot := randomSamples(rng, mixHot, nil, f.sc.mixHot)
	f.hotHistory.addSamples(hot)
	all := hot
	perProblem := make([]int, f.sc.mixProblems)
	for i := 0; i < f.sc.mixSamples; i++ {
		p := i % f.sc.mixProblems
		t := (i / f.sc.mixProblems) % f.sc.mixTasks
		all = append(all, randomSample(rng, mixProblem(p), taskParams(t)))
		perProblem[p]++
	}
	// One id per sample; ids are per shard, so across a multi-problem
	// batch they may repeat and only their number is checked here.
	ids, err := f.d.client.Upload(all)
	if err == nil && len(ids) != len(all) {
		err = fmt.Errorf("seeding upload of %d samples returned %d ids", len(all), len(ids))
	}
	if err != nil {
		return err
	}
	for p := range f.want {
		docs, err := f.d.client.Query(crowd.QueryRequest{TuningProblemName: mixProblem(p)})
		if err != nil {
			return err
		}
		if len(docs) != perProblem[p] {
			return fmt.Errorf("seeded %d samples of %s, query returns %d", perProblem[p], mixProblem(p), len(docs))
		}
		f.want[p] = make(map[string]bool, len(docs))
		for i := range docs {
			f.want[p][docs[i].ID] = true
		}
	}
	_, err = f.d.client.SuggestRemote(context.Background(), crowd.SuggestRequest{TuningProblemName: mixHot})
	return err
}

func (f *mixFixture) close() { f.d.close() }

func (f *mixFixture) measure(seconds float64, tr *tracer) *measurement {
	ctx := context.Background()
	before := f.d.suggestStats()
	shedBefore, uploadsBefore, appendsBefore, retriesBefore := f.d.shed(), f.d.uploads(), f.d.logAppends(), f.d.routeRetries()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))

	m := runClients(clients, func(c int, log *clientLog) {
		// acked are the ids this client has had acknowledged, per
		// (problem, task): a later filtered query must return them all.
		acked := make(map[[2]int][]string)
		for time.Now().Before(deadline) {
			i := f.next.Add(1) - 1
			if int(i) >= len(f.ops) {
				return
			}
			op := f.ops[i]
			sp := tr.start(tr.newTrace(), 0, "op."+op.kind)
			t0 := time.Now()
			err := f.do(ctx, op, acked, log)
			d := time.Since(t0)
			sp.end()
			if err != nil {
				log.fail(err)
				continue
			}
			// Reads make up the latency sample: the median of all four
			// types would sit in the gap between fast reads and slow writes
			// and jump with the smallest shift. Writes count toward
			// ops_per_s and are reported in op.upload_p95_ms.
			log.ok(op.kind, d, op.kind != "upload")
		}
	})

	m.counters = suggestCounters(before, f.d.suggestStats())
	m.counters["crowd.shed_total"] = float64(f.d.shed() - shedBefore)
	m.counters["replog.appends_per_upload"] = ratio(float64(f.d.logAppends()-appendsBefore), float64(f.d.uploads()-uploadsBefore))
	m.counters["cluster.leader_redirects"] = float64(f.d.routeRetries() - retriesBefore)
	return m
}

// do sends one operation and checks its reply.
func (f *mixFixture) do(ctx context.Context, op mixOp, acked map[[2]int][]string, log *clientLog) error {
	key := [2]int{op.problem, op.task}
	switch op.kind {
	case "upload":
		ids, err := f.d.client.Upload(op.samples)
		if err == nil {
			err = checkUpload(ids, len(op.samples))
		}
		if err != nil {
			return err
		}
		acked[key] = append(acked[key], ids...)
		f.mu.Lock()
		for _, id := range ids {
			f.want[op.problem][id] = true
		}
		f.mu.Unlock()
	case "query":
		got, err := f.d.client.QueryWithParamFilter(mixProblem(op.problem), crowd.ConfigurationSpace{},
			historydb.Eq("task_parameters.t", float64(op.task)), 0)
		if err != nil {
			return err
		}
		return checkCovers(got, acked[key])
	case "problems":
		names, err := f.d.client.Problems()
		if err != nil {
			return err
		}
		if len(names) != f.sc.mixProblems+1 {
			return fmt.Errorf("problems lists %d names, want %d", len(names), f.sc.mixProblems+1)
		}
	case "suggest":
		resp, err := f.d.client.SuggestRemote(ctx, crowd.SuggestRequest{TuningProblemName: mixHot})
		if err == nil {
			err = checkSuggest(resp, 1, true, f.hotHistory)
		}
		if err != nil {
			return err
		}
		x, y, _ := xy(resp.TuningParams)
		log.quality(proposalScore(x, y, 0))
	}
	return nil
}

// verify: after the window a full query per problem returns exactly the
// seeded plus acknowledged documents — no loss, no duplicate ids.
func (f *mixFixture) verify(m *measurement) {
	for p := range f.want {
		got, err := f.d.client.Query(crowd.QueryRequest{TuningProblemName: mixProblem(p)})
		if err == nil {
			err = checkExact(got, f.want[p])
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", mixProblem(p), err)
		}
		m.check(err)
	}
}

func deployNode(cfg crowd.Config, sp *space.Space, problems []string, sc scale) (*deployment, error) {
	return newNode(cfg, sp, problems)
}

func deployCluster(cfg crowd.Config, sp *space.Space, problems []string, sc scale) (*deployment, error) {
	return newCluster(cfg, sp, problems, sc.shards, sc.followers)
}
