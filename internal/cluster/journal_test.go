package cluster

// The write path acts on the journal's one error, and what the parent
// commit wrote — on disk and on the wire — still loads.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gptunecrowd/internal/crowd"
	"gptunecrowd/internal/replog"
)

// errCode extracts the machine-readable code of an error reply.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	return e.Code
}

// TestJournalFailureIsNotAcknowledged: when a log under a leader stops
// taking appends, the write that hit it is answered 503 journal_failed
// — not 2xx with ids, as it used to be — the node reports not-ready and
// stops leading, later writes are refused up front, and the follower
// holds nothing it was not sent.
func TestJournalFailureIsNotAcknowledged(t *testing.T) {
	upload, _ := json.Marshal(crowd.UploadRequest{FuncEvals: []crowd.FuncEval{stressEval("p", "lost-sample", 3)}})
	for _, tc := range []struct {
		log, path string
		body      []byte
	}{
		{"func_evals", "/api/v1/func_eval/upload", upload},
		{"tasks", "/api/v1/tasks/submit", []byte(`{"spec":{"app":"demo","tuning_problem_name":"p","budget":2}}`)},
	} {
		t.Run(tc.log, func(t *testing.T) {
			sp := testSpace(t)
			leader, leaderTS := newTestNode(t, "s0", true, []string{"p"}, sp)
			follower, followerTS := newTestNode(t, "s0", false, []string{"p"}, sp)
			rep := leader.AttachFollower(followerTS.URL, nil)
			defer rep.Stop()
			c := newStressClient(leaderTS.URL, "")
			key, err := c.Register("alice", "")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Upload([]crowd.FuncEval{stressEval("p", "kept-sample", 1)}); err != nil {
				t.Fatal(err)
			}
			h := leaderTS.Config.Handler

			lg := leader.Log(tc.log)
			before := lg.LastIndex()
			lg.Close() // the next append fails

			rec := wireCall(h, http.MethodPost, tc.path, key, bytes.NewReader(tc.body))
			if rec.Code != http.StatusServiceUnavailable || errCode(t, rec.Body.Bytes()) != "journal_failed" {
				t.Fatalf("write over a failed journal = %d %s, want 503 journal_failed", rec.Code, rec.Body)
			}
			if got := lg.LastIndex(); got != before {
				t.Fatalf("LastIndex moved %d -> %d", before, got)
			}
			if status, body := getReadyz(t, leaderTS.URL); status != http.StatusServiceUnavailable || body["state"] != "journal_failed" {
				t.Fatalf("readyz = %d %v, want 503 journal_failed", status, body)
			}
			if leader.Role() != RoleFollower || !leader.Fenced() {
				t.Fatalf("failed leader still leads: role %s fenced %v", leader.Role(), leader.Fenced())
			}
			// Every later write is refused before it runs, whatever it touches.
			rec = wireCall(h, http.MethodPost, "/api/v1/func_eval/upload", key, bytes.NewReader(upload))
			if rec.Code != http.StatusServiceUnavailable || errCode(t, rec.Body.Bytes()) != "journal_failed" {
				t.Fatalf("second write = %d %s, want 503 journal_failed", rec.Code, rec.Body)
			}
			if _, err := leader.PromoteEpoch(0); err == nil {
				t.Fatal("a node with a failed journal accepted a promotion")
			}
			metrics := wireCall(h, http.MethodGet, "/metrics", "", nil).Body.String()
			if !strings.Contains(metrics, "cluster_journal_errors_total 2") {
				t.Fatalf("cluster_journal_errors_total did not count both refusals:\n%s", grepLines(metrics, "cluster_journal"))
			}

			// The follower was never told of more than it holds, and holds
			// only the acknowledged sample.
			for name, li := range follower.logs.info() {
				if li.Commit > li.Last {
					t.Fatalf("follower %s commit %d ahead of its log %d", name, li.Commit, li.Last)
				}
			}
			if snap := machineSnapshot(t, follower, "func_evals"); !bytes.Contains(snap, []byte("kept-sample")) || bytes.Contains(snap, []byte("lost-sample")) {
				t.Fatalf("follower func_evals = %s", snap)
			}
			if n := follower.Server().TaskPool().Len(); n != 0 {
				t.Fatalf("follower holds %d tasks, none was acknowledged", n)
			}
		})
	}
}

func grepLines(s, sub string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestJournalFailureFailsOver: the supervisor sees the fail-stopped
// leader as a shard without one and promotes the in-sync follower, which
// holds every acknowledged sample and takes the retried write.
func TestJournalFailureFailsOver(t *testing.T) {
	sp := testSpace(t)
	leader, leaderTS := newTestNode(t, "s0", true, []string{"p"}, sp)
	follower, followerTS := newTestNode(t, "s0", false, []string{"p"}, sp)
	leader.AttachFollower(followerTS.URL, nil)
	coord, err := NewCoordinator(CoordinatorConfig{
		Topology:       Topology{Version: 1, Shards: []ShardInfo{{ID: "s0", Leader: leaderTS.URL, Replicas: []string{followerTS.URL}}}},
		Token:          testToken,
		ProbeTimeout:   250 * time.Millisecond,
		RetryBaseDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	coordTS := httptest.NewServer(coord)
	defer coordTS.Close()
	c := newStressClient(coordTS.URL, "")
	key, err := c.Register("alice", "")
	if err != nil {
		t.Fatal(err)
	}
	c.APIKey = key
	if _, err := c.Upload([]crowd.FuncEval{stressEval("p", "acked-before", 1)}); err != nil {
		t.Fatal(err)
	}

	leader.Log("func_evals").Close()
	sup := coord.StartSupervisor(SupervisorConfig{Interval: 50 * time.Millisecond, Misses: 2})
	defer sup.Stop()
	// The client's retries ride out the failover: 503 journal_failed from
	// the old leader, then the promoted follower takes the write.
	if _, err := c.Upload([]crowd.FuncEval{stressEval("p", "acked-after", 2)}); err != nil {
		t.Fatalf("upload across the journal failure: %v", err)
	}
	if follower.Role() != RoleLeader {
		t.Fatalf("follower role %s, want leader", follower.Role())
	}
	evals, err := c.Query(crowd.QueryRequest{TuningProblemName: "p"})
	if err != nil || len(evals) != 2 {
		t.Fatalf("query after failover: %d evals, err %v; want both acknowledged samples", len(evals), err)
	}
}

// copyTree copies a fixture directory so a test may open (and write
// term markers into) it.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// parentCounts is what the parent commit's node held when it wrote the
// fixtures under testdata/parent_pr20 (see CHANGES.md, PR 22).
var parentCounts = map[string]int{"func_evals": 11, "quarantine": 1, "surrogate_models": 0, "tasks": 2, "users": 1}

func checkParentState(t *testing.T, n *Node, h http.Handler) {
	t.Helper()
	n.EachLog(func(name string, j *replog.Journal) {
		if got := j.Machine().Len(); got != parentCounts[name] {
			t.Errorf("%s holds %d records, the parent wrote %d", name, got, parentCounts[name])
		}
	})
	key, err := os.ReadFile("testdata/parent_pr20/api_key.txt")
	if err != nil {
		t.Fatal(err)
	}
	rec := wireCall(h, http.MethodPost, "/api/v1/func_eval/query", string(key), strings.NewReader(`{"tuning_problem_name":"p"}`))
	var out crowd.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || len(out.FuncEvals) != parentCounts["func_evals"] {
		t.Fatalf("query with the parent's api key = %d %s", rec.Code, rec.Body)
	}
}

// TestOpensParentDataDir: segments, snapshots and term markers written
// by the parent commit open and replay, and the node keeps writing.
func TestOpensParentDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "logs")
	copyTree(t, "testdata/parent_pr20/datadir", dir)
	n, err := NewNode(NodeConfig{Shard: "s0", Leader: true, DataDir: dir, SegmentMaxRecords: 2, Crowd: crowd.Config{SuggestSeed: 11}})
	if err != nil {
		t.Fatalf("open the parent's data directory: %v", err)
	}
	defer n.Close()
	n.Server().RegisterProblemPolicy("p", crowd.ProblemPolicy{Space: testSpace(t)})
	if n.Epoch() != 1 {
		t.Fatalf("epoch %d, the parent's term markers say 1", n.Epoch())
	}
	checkParentState(t, n, n)
	ts := httptest.NewServer(n)
	defer ts.Close()
	key, _ := os.ReadFile("testdata/parent_pr20/api_key.txt")
	ids, err := newStressClient(ts.URL, string(key)).Upload([]crowd.FuncEval{stressEval("p", "after-upgrade", 4)})
	if err != nil || len(ids) != 1 || ids[0] != "12" {
		t.Fatalf("upload onto the parent's data: ids %v, err %v; want the next id 12", ids, err)
	}
	if err := n.CompactAll(); err != nil {
		t.Fatal(err)
	}
}

// TestAppliesParentPush: a follower applies a replication push exactly
// as a parent-commit leader serialized it — snapshot batches for the
// compacted logs, records for the rest — and acknowledges its heads.
func TestAppliesParentPush(t *testing.T) {
	push, err := os.ReadFile("testdata/parent_pr20/push.json")
	if err != nil {
		t.Fatal(err)
	}
	follower, followerTS := newTestNode(t, "s0", false, []string{"p"}, testSpace(t))
	req, _ := http.NewRequest(http.MethodPost, followerTS.URL+"/api/v1/cluster/apply", bytes.NewReader(push))
	req.Header.Set(TokenHeader, testToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var ack applyResponse
	if err := json.Unmarshal(body, &ack); err != nil || resp.StatusCode != http.StatusOK || len(ack.Errors) > 0 || ack.Resync {
		t.Fatalf("apply of the parent's push = %d %s", resp.StatusCode, body)
	}
	var sent applyRequest
	if err := json.Unmarshal(push, &sent); err != nil {
		t.Fatal(err)
	}
	for name, b := range sent.Logs {
		if ack.Acked[name] != b.Head {
			t.Errorf("%s acknowledged at %d, the leader's head is %d", name, ack.Acked[name], b.Head)
		}
	}
	checkParentState(t, follower, followerTS.Config.Handler)
	if got := follower.LeaderURL(); got != sent.Leader {
		t.Fatalf("follower's leader = %q, the push names %q", got, sent.Leader)
	}
}

// TestUnappliedRecordIsNotAcknowledged: a pushed record the machine
// rejects used to be appended to the follower's log and acknowledged at
// its index; now it reaches neither and the ack stays where it was.
func TestUnappliedRecordIsNotAcknowledged(t *testing.T) {
	follower, followerTS := newTestNode(t, "s0", false, []string{"p"}, testSpace(t))
	status, body := clusterPost(t, followerTS.URL, "/api/v1/cluster/apply", map[string]interface{}{
		"shard": "s0", "leader": "http://127.0.0.1:1", "epoch": 1,
		"logs": map[string]interface{}{"func_evals": map[string]interface{}{
			"head": 1, "records": []map[string]interface{}{{"i": 1, "p": map[string]string{"op": "zap"}}},
		}},
	})
	if status != http.StatusOK {
		t.Fatalf("apply: HTTP %d %v", status, body)
	}
	if acked := body["acked"].(map[string]interface{})["func_evals"].(float64); acked != 0 {
		t.Fatalf("acknowledged index %v for a record the machine rejected", acked)
	}
	if errs, _ := body["errors"].(map[string]interface{}); errs["func_evals"] == nil {
		t.Fatalf("the rejection was not reported: %v", body)
	}
	if last := follower.Log("func_evals").LastIndex(); last != 0 {
		t.Fatalf("the rejected record was appended: LastIndex %d", last)
	}
}
