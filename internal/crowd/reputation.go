package crowd

import (
	"context"
	"math"
	"sort"
	"sync"

	"gptunecrowd/internal/historydb"
)

// Reputation is one uploader's standing, derived from how their samples
// fared in validation and from consensus with other uploaders on
// repeat-measured configurations.
type Reputation struct {
	// Accepted counts samples that passed validation and were stored.
	Accepted int64 `json:"accepted"`
	// Quarantined counts samples rejected into quarantine.
	Quarantined int64 `json:"quarantined"`
	// Released counts quarantined samples an admin later released.
	Released int64 `json:"released"`
	// Agreements/Disagreements count consensus checks against other
	// uploaders' measurements of the same configuration.
	Agreements    int64 `json:"agreements"`
	Disagreements int64 `json:"disagreements"`
	// Score is a [0,1] trust score combining the accept rate and the
	// consensus rate with Laplace smoothing, so new uploaders start
	// near 0.5 instead of at an extreme.
	Score float64 `json:"score"`
}

// score computes the smoothed trust score.
func (r Reputation) score() float64 {
	acceptRate := float64(r.Accepted+1) / float64(r.Accepted+r.Quarantined+2)
	consensusRate := float64(r.Agreements+1) / float64(r.Agreements+r.Disagreements+2)
	return acceptRate * consensusRate
}

// reputationStore tracks per-uploader counters in memory; it is rebuilt
// from the persisted collections on restart (RebuildTrustState).
type reputationStore struct {
	mu    sync.Mutex
	users map[string]*Reputation
}

func newReputationStore() *reputationStore {
	return &reputationStore{users: make(map[string]*Reputation)}
}

func (rs *reputationStore) get(user string) *Reputation {
	r, ok := rs.users[user]
	if !ok {
		r = &Reputation{}
		rs.users[user] = r
	}
	return r
}

func (rs *reputationStore) recordAccepted(user string) {
	rs.mu.Lock()
	rs.get(user).Accepted++
	rs.mu.Unlock()
}

func (rs *reputationStore) recordQuarantined(user string) {
	rs.mu.Lock()
	rs.get(user).Quarantined++
	rs.mu.Unlock()
}

func (rs *reputationStore) recordReleased(user string) {
	rs.mu.Lock()
	rs.get(user).Released++
	rs.mu.Unlock()
}

func (rs *reputationStore) recordConsensus(user string, agreed bool) {
	rs.mu.Lock()
	if agreed {
		rs.get(user).Agreements++
	} else {
		rs.get(user).Disagreements++
	}
	rs.mu.Unlock()
}

// replace swaps in the counters of another store (rebuild).
func (rs *reputationStore) replace(other *reputationStore) {
	other.mu.Lock()
	users := other.users
	other.users = make(map[string]*Reputation)
	other.mu.Unlock()
	rs.mu.Lock()
	rs.users = users
	rs.mu.Unlock()
}

// snapshot copies the counters with scores filled in.
func (rs *reputationStore) snapshot() map[string]Reputation {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.users) == 0 {
		return nil
	}
	out := make(map[string]Reputation, len(rs.users))
	for user, r := range rs.users {
		cp := *r
		cp.Score = cp.score()
		out[user] = cp
	}
	return out
}

// consensusRelTol is the relative tolerance for two uploaders'
// measurements of the same configuration to count as agreeing. Crowd
// runtimes vary across machines; the paper's repeat measurements are
// noisy but same-order, so a generous tolerance separates noise from
// fabrication.
const consensusRelTol = 0.25

// consensusCheck compares an accepted sample against other uploaders'
// measurements of the identical configuration (same problem, same
// tuning parameters). With no peer measurements it records nothing;
// otherwise the uploader agrees when their value is within
// consensusRelTol of the peer median.
func (s *Server) consensusCheck(fe *FuncEval, user string) {
	if fe.Failed {
		return
	}
	var peers []float64
	// A background context cannot expire, so the scan cannot fail.
	scanned, _ := s.funcEvals().Scan(context.Background(), historydb.Eq(problemField, fe.TuningProblemName), func(d historydb.Document) bool {
		other, ok := readMeasurement(d)
		if !ok || other.failed || other.owner == user {
			return true
		}
		if !sameParams(other.tuning, fe.TuningParams) || !sameParams(other.task, fe.TaskParams) {
			return true
		}
		if !math.IsNaN(other.y) && !math.IsInf(other.y, 0) {
			peers = append(peers, other.y)
		}
		return true
	})
	s.metrics.scanned("upload", scanned)
	if len(peers) == 0 {
		return
	}
	med := median(peers)
	scale := math.Max(math.Abs(med), 1e-9)
	agreed := math.Abs(fe.Output-med) <= consensusRelTol*scale
	s.reputation.recordConsensus(user, agreed)
}

// sameParams reports whether two parameter maps hold the same keys with
// numerically/string-equal values (JSON-decoded forms).
func sameParams(a, b map[string]interface{}) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			return false
		}
		af, aIsNum := asFloat(av)
		bf, bIsNum := asFloat(bv)
		switch {
		case aIsNum && bIsNum:
			if af != bf {
				return false
			}
		case aIsNum != bIsNum:
			return false
		default:
			as, aOK := av.(string)
			bs, bOK := bv.(string)
			if !aOK || !bOK || as != bs {
				return false
			}
		}
	}
	return true
}

func median(v []float64) float64 {
	cp := append([]float64(nil), v...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return 0.5 * (cp[n/2-1] + cp[n/2])
}
