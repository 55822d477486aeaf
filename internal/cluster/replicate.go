package cluster

// Leader→follower replication. One Replicator runs per follower: a
// push loop that ships every replicated log's tail (or a full snapshot
// when the follower is behind the leader's compaction horizon) to the
// follower's /api/v1/cluster/apply endpoint and feeds the acknowledged
// indexes back into the leader's commit computation. The write barrier
// in node.go kicks the loop so acknowledgements arrive at write
// latency, not heartbeat latency; the heartbeat keeps follower
// freshness windows open when the shard is idle.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"gptunecrowd/internal/crowd"
)

// Replication tuning. The intervals are NodeConfig defaults (chaos
// tests shrink them to compress failure-detection windows);
// single-digit-millisecond pushes dominate production.
const (
	// DefaultHeartbeatInterval bounds how long a healthy follower goes
	// without hearing from its leader (its read-freshness clock).
	DefaultHeartbeatInterval = 500 * time.Millisecond
	// deadAfterFailures is how many consecutive push failures mark a
	// follower dead and drop it from the commit quorum.
	deadAfterFailures = 3
	// maxBatchRecords caps records shipped per log per push.
	maxBatchRecords = 1024
	// DefaultPushTimeout bounds one replication round trip. A
	// black-holed follower connection then counts as a push failure
	// (and is dropped from the commit quorum after deadAfterFailures)
	// instead of wedging the push loop — and Stop/Close — indefinitely.
	DefaultPushTimeout = 5 * time.Second
)

// wireRecord is one replicated log record on the wire.
type wireRecord struct {
	Index   uint64          `json:"i"`
	Payload json.RawMessage `json:"p"`
}

// applyLogBatch carries one log's replication payload: the leader's
// head (for follower staleness accounting), an optional base snapshot,
// and the records after the follower's acknowledged index. Force marks
// a truncation-resync batch: the follower discards its own log —
// including any diverged tail it appended as a deposed leader — and
// rebuilds from this snapshot.
type applyLogBatch struct {
	Head          uint64       `json:"head"`
	SnapshotIndex uint64       `json:"snapshot_index,omitempty"`
	Snapshot      *string      `json:"snapshot,omitempty"`
	Force         bool         `json:"force,omitempty"`
	Records       []wireRecord `json:"records,omitempty"`
}

// applyRequest is one replication push (possibly a pure heartbeat).
// Epoch is the leader's promotion epoch: followers reject pushes from
// leaderships older than the one they follow, so a deposed leader that
// comes back can never silently re-adopt its old followers.
type applyRequest struct {
	Shard  string                    `json:"shard"`
	Leader string                    `json:"leader,omitempty"`
	Epoch  uint64                    `json:"epoch,omitempty"`
	Logs   map[string]*applyLogBatch `json:"logs"`
}

// applyResponse acknowledges the follower's position after the push.
type applyResponse struct {
	Acked map[string]uint64 `json:"acked"`
	// Errors reports per-log apply failures (the log's ack then marks
	// where the follower actually stopped).
	Errors map[string]string `json:"errors,omitempty"`
	// Resync asks the leader to re-send everything as Force snapshot
	// batches: the follower's log diverged from the leader's (it was a
	// leader itself once and carries an unacknowledged tail).
	Resync bool `json:"resync,omitempty"`
}

// fencedBody is the JSON body of a 409 replication rejection: the
// epoch and leader of the leadership that fenced the push.
type fencedBody struct {
	Error  string `json:"error"`
	Code   string `json:"code"`
	Epoch  uint64 `json:"epoch"`
	Leader string `json:"leader"`
}

// Replicator streams a leader node's logs to one follower.
type Replicator struct {
	node   *Node
	url    string
	client *http.Client

	kickCh   chan struct{}
	stopCh   chan struct{}
	stopOnce sync.Once
	doneCh   chan struct{}

	mu        sync.Mutex
	acked     map[string]uint64
	alive     bool
	fenced    bool
	failures  int
	needForce bool // follower asked for a truncation resync
}

// AttachFollower starts replicating this (leader) node's logs to the
// follower at baseURL and registers the follower in the commit quorum.
// httpClient nil uses http.DefaultClient; either way every push runs
// under pushTimeout, so a hung follower degrades to a dead one instead
// of wedging the loop.
func (n *Node) AttachFollower(baseURL string, httpClient *http.Client) *Replicator {
	if httpClient == nil {
		httpClient = n.cfg.InternalClient
	}
	r := &Replicator{
		node:   n,
		url:    strings.TrimRight(baseURL, "/"),
		client: httpClient,
		kickCh: make(chan struct{}, 1),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
		acked:  make(map[string]uint64),
		alive:  true,
	}
	n.mu.Lock()
	n.replicators = append(n.replicators, r)
	n.mu.Unlock()
	go r.run()
	return r
}

// Followers returns the URLs of the followers this node replicates to.
func (n *Node) Followers() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.replicators))
	for i, r := range n.replicators {
		out[i] = r.url
	}
	return out
}

// Stop halts the push loop and waits for it to exit.
func (r *Replicator) Stop() {
	r.signalStop()
	<-r.doneCh
}

// signalStop asks the push loop to exit without waiting for it — the
// form a replicator may use on itself from inside the loop.
func (r *Replicator) signalStop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
}

// Alive reports whether the follower is in the commit quorum.
func (r *Replicator) Alive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alive && !r.fenced
}

func (r *Replicator) ackedIndex(name string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked[name]
}

// kick nudges the loop to push immediately (non-blocking; a pending
// kick coalesces).
func (r *Replicator) kick() {
	select {
	case r.kickCh <- struct{}{}:
	default:
	}
}

func (r *Replicator) run() {
	defer close(r.doneCh)
	timer := time.NewTimer(r.node.cfg.HeartbeatInterval)
	defer timer.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-r.kickCh:
		case <-timer.C:
		}
		if r.isFenced() {
			return
		}
		behind := r.push()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		if behind {
			// More entries than one batch: push again immediately.
			r.kick()
		}
		timer.Reset(r.node.cfg.HeartbeatInterval)
	}
}

func (r *Replicator) isFenced() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fenced
}

// push ships one batch (or heartbeat) and processes the acks. It
// returns true when the follower is still behind and another push
// should follow at once.
func (r *Replicator) push() bool {
	r.mu.Lock()
	force := r.needForce // the follower asked for a resync: Force batches
	r.mu.Unlock()
	var resp *applyResponse
	logs, err := r.node.logs.batches(r.ackedIndex, force)
	if err == nil {
		resp, err = r.send(&applyRequest{
			Shard: r.node.cfg.Shard, Leader: r.node.Advertise(), Epoch: r.node.Epoch(), Logs: logs,
		})
	}
	if err != nil {
		r.node.metrics.replicationErrs.Inc()
		r.noteFailure()
		return false
	}
	rejected := len(resp.Errors) > 0
	r.mu.Lock()
	for name, idx := range resp.Acked {
		r.acked[name] = idx
	}
	if !rejected {
		r.alive = true
		r.failures = 0
	}
	wasForce := r.needForce
	r.needForce = resp.Resync
	r.mu.Unlock()
	if resp.Resync {
		if !wasForce {
			// The follower's log diverged (deposed-leader tail); the
			// next push re-sends every log as a Force snapshot batch.
			r.node.metrics.resyncs.Inc()
		}
		return true
	}
	if rejected {
		// The follower's machine refused a record, so its ack cannot
		// pass it: a failed push like a transport error, and repeated,
		// the follower leaves the commit quorum instead of wedging it.
		r.node.metrics.replicationErrs.Inc()
		r.noteFailure()
	}
	r.node.recomputeCommit()
	return !rejected && r.node.logs.behind(r.ackedIndex)
}

func (r *Replicator) send(req *applyRequest) (*applyResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), r.node.cfg.PushTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/api/v1/cluster/apply", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if r.node.cfg.Token != "" {
		hreq.Header.Set(TokenHeader, r.node.cfg.Token)
	}
	resp, err := r.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		// The follower answers to a newer leadership: this node's is
		// fenced. Step down to follower immediately — writes start
		// bouncing to the promoted node (the 409 body and header name
		// it) — and keep this replicator's frozen ack in the commit
		// computation so no in-flight write barrier self-commits past
		// what the new leader carries.
		var fb fencedBody
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&fb)
		newLeader := fb.Leader
		if newLeader == "" {
			newLeader = resp.Header.Get(crowd.ShardLeaderHeader)
		}
		r.mu.Lock()
		r.fenced = true
		r.alive = false
		r.mu.Unlock()
		r.node.stepDown(newLeader, fb.Epoch)
		r.node.recomputeCommit()
		return nil, fmt.Errorf("cluster: follower %s fenced this leader (epoch %d at %s)", r.url, fb.Epoch, newLeader)
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("cluster: apply to %s: HTTP %d", r.url, resp.StatusCode)
	}
	var out applyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// noteFailure counts a failed push; enough in a row drop the follower
// from the commit quorum so the leader does not wedge behind a dead
// replica.
func (r *Replicator) noteFailure() {
	r.mu.Lock()
	r.failures++
	died := r.alive && r.failures >= deadAfterFailures
	if died {
		r.alive = false
	}
	r.mu.Unlock()
	if died {
		r.node.metrics.followerDeaths.Inc()
		r.node.recomputeCommit()
	}
}
