package qbets

import (
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/repl"
)

// replState is the server's view of its replication role, installed by
// SetLeaderReplication or SetFollowerReplication. Its two probes drive
// the health endpoint and the Retry-After header: degraded flips /healthz
// to 503 (a fenced ex-leader, a follower lagging past its bound), and
// retryAfter turns the node's actual recovery cadence into the hint a
// refused client is given.
type replState struct {
	role       string
	degraded   func() bool
	retryAfter func() time.Duration
}

// retryAfterSeconds derives the Retry-After for a 503: the largest of one
// second, the WAL's sync probe interval (how long a read-only refusal
// takes to self-heal), and the replication layer's own estimate (a
// disconnected follower's current reconnect backoff). Rounded up to whole
// seconds, as the delay-seconds form of the header requires.
func (s *Server) retryAfterSeconds() int {
	d := time.Second
	if p := s.svc.SyncProbeInterval(); p > d {
		d = p
	}
	if rs := s.repl.Load(); rs != nil && rs.retryAfter != nil {
		if rd := rs.retryAfter(); rd > d {
			d = rd
		}
	}
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// SetLeaderReplication marks this server as the replication leader and
// exposes the leader's shipping plane on /metrics. A fenced leader — one
// that has seen a higher epoch — reports unhealthy so a balancer stops
// routing writes to it.
func (s *Server) SetLeaderReplication(l *repl.Leader) {
	s.repl.Store(&replState{
		role:     "leader",
		degraded: l.Fenced,
	})
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	s.reg.RegisterGaugeFunc("qbets_repl_role", "Replication role; the value is always 1, the label carries the role.",
		func(emit func(string, float64)) { emit(obs.Labels("role", "leader"), 1) })
	s.reg.RegisterGaugeFunc("qbets_repl_epoch", "Replication epoch this node is serving under.",
		func(emit func(string, float64)) { emit("", float64(l.Epoch())) })
	s.reg.RegisterGaugeFunc("qbets_repl_fenced", "1 once this leader has witnessed a higher epoch and refuses to ack.",
		func(emit func(string, float64)) { emit("", b(l.Fenced())) })
	s.reg.RegisterGaugeFunc("qbets_repl_followers", "Follower sessions currently connected.",
		func(emit func(string, float64)) { emit("", float64(l.Followers())) })
	s.reg.RegisterGaugeFunc("qbets_repl_ack_seq", "Highest sequence acknowledged as applied by a follower.",
		func(emit func(string, float64)) { emit("", float64(l.AckSeq())) })
	s.reg.RegisterCounterFunc("qbets_repl_batches_sent_total", "Record batches shipped to followers.",
		func(emit func(string, float64)) { emit("", float64(l.BatchesSent())) })
	s.reg.RegisterCounterFunc("qbets_repl_records_shipped_total", "Log records shipped to followers.",
		func(emit func(string, float64)) { emit("", float64(l.RecordsShipped())) })
	s.reg.RegisterCounterFunc("qbets_repl_snapshots_sent_total", "Catch-up snapshots sent to new or lagging followers.",
		func(emit func(string, float64)) { emit("", float64(l.SnapshotsSent())) })
	s.reg.RegisterCounterFunc("qbets_repl_heartbeats_sent_total", "Heartbeats sent on idle follower sessions.",
		func(emit func(string, float64)) { emit("", float64(l.HeartbeatsSent())) })
	s.reg.RegisterCounterFunc("qbets_repl_fences_total", "Times this leader was fenced by a higher epoch.",
		func(emit func(string, float64)) { emit("", float64(l.Fences())) })
	s.reg.RegisterGaugeFunc("qbets_repl_quorum", "Commit quorum K: acks required before CommitWait releases.",
		func(emit func(string, float64)) { emit("", float64(l.Quorum())) })
	s.reg.RegisterCounterFunc("qbets_repl_ship_bytes_total", "Payload bytes shipped to followers (batches, snapshots, chunks).",
		func(emit func(string, float64)) { emit("", float64(l.ShipBytes())) })
	s.reg.RegisterCounterFunc("qbets_repl_batch_cache_hits_total", "Shipped batches served from the frame-once batch cache.",
		func(emit func(string, float64)) { emit("", float64(l.BatchCacheHits())) })
	s.reg.RegisterCounterFunc("qbets_repl_batch_cache_misses_total", "Shipped batches that had to be read and framed from the WAL.",
		func(emit func(string, float64)) { emit("", float64(l.BatchCacheMisses())) })
	s.reg.RegisterGaugeFunc("qbets_repl_batch_cache_bytes", "Encoded frame bytes the batch cache retains for follower cursors that can still request them.",
		func(emit func(string, float64)) { emit("", float64(l.BatchCacheBytes())) })
	s.reg.RegisterGaugeFunc("qbets_repl_inflight_messages", "Sent-but-unacknowledged messages across all follower windows.",
		func(emit func(string, float64)) { emit("", float64(l.InflightMessages())) })
	s.reg.RegisterGaugeFunc("qbets_repl_inflight_bytes", "Sent-but-unacknowledged payload bytes across all follower windows.",
		func(emit func(string, float64)) { emit("", float64(l.InflightBytes())) })
	s.reg.RegisterCounterFunc("qbets_repl_snapshot_chunks_sent_total", "Catch-up snapshot chunks shipped.",
		func(emit func(string, float64)) { emit("", float64(l.SnapChunksSent())) })
	s.reg.RegisterCounterFunc("qbets_repl_snapshot_generations_shared_total", "Catch-ups that joined an already-open snapshot generation.",
		func(emit func(string, float64)) { emit("", float64(l.SnapGenerationsShared())) })
	s.reg.RegisterGaugeFunc("qbets_repl_snapshot_inflight_peak_bytes", "High-water mark of snapshot chunk bytes in flight across all catch-ups.",
		func(emit func(string, float64)) { emit("", float64(l.SnapInflightPeakBytes())) })
}

// SetFollowerReplication marks this server as a replication follower and
// exposes its session on /metrics. Writes are already refused by the
// Service's follower gate; this additionally makes /healthz report 503
// while the follower lags past its configured bound, so a balancer stops
// routing reads to state staler than the operator allows.
func (s *Server) SetFollowerReplication(f *repl.Follower) {
	s.repl.Store(&replState{
		role:       "follower",
		degraded:   f.Degraded,
		retryAfter: f.RetryAfter,
	})
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	s.reg.RegisterGaugeFunc("qbets_repl_role", "Replication role; the value is always 1, the label carries the role.",
		func(emit func(string, float64)) { emit(obs.Labels("role", "follower"), 1) })
	s.reg.RegisterGaugeFunc("qbets_repl_epoch", "Highest replication epoch this node has witnessed.",
		func(emit func(string, float64)) { emit("", float64(f.Epoch())) })
	s.reg.RegisterGaugeFunc("qbets_repl_connected", "1 while a session with the leader is live.",
		func(emit func(string, float64)) { emit("", b(f.Connected())) })
	s.reg.RegisterGaugeFunc("qbets_repl_lag", "Records the applied state trails the leader's advertised durability watermark by.",
		func(emit func(string, float64)) { emit("", float64(f.Lag())) })
	s.reg.RegisterGaugeFunc("qbets_repl_leader_seq", "Leader's last advertised durability watermark.",
		func(emit func(string, float64)) { emit("", float64(f.LeaderSeq())) })
	s.reg.RegisterGaugeFunc("qbets_repl_applied_seq", "Highest replicated sequence folded into local state.",
		func(emit func(string, float64)) { emit("", float64(s.svc.ReplicaAppliedSeq())) })
	s.reg.RegisterCounterFunc("qbets_repl_reconnects_total", "Replication sessions established (first connect included).",
		func(emit func(string, float64)) { emit("", float64(f.Reconnects())) })
	s.reg.RegisterCounterFunc("qbets_repl_batches_applied_total", "Shipped batches applied.",
		func(emit func(string, float64)) { emit("", float64(f.BatchesApplied())) })
	s.reg.RegisterCounterFunc("qbets_repl_records_applied_total", "Shipped records applied.",
		func(emit func(string, float64)) { emit("", float64(f.RecordsApplied())) })
	s.reg.RegisterCounterFunc("qbets_repl_snapshots_installed_total", "Catch-up snapshots installed.",
		func(emit func(string, float64)) { emit("", float64(f.SnapshotsInstalled())) })
	s.reg.RegisterCounterFunc("qbets_repl_rejects_sent_total", "Stale-epoch messages rejected (fences sent to a deposed leader).",
		func(emit func(string, float64)) { emit("", float64(f.RejectsSent())) })
	s.reg.RegisterCounterFunc("qbets_repl_snapshot_chunks_applied_total", "Catch-up snapshot chunks applied.",
		func(emit func(string, float64)) { emit("", float64(f.SnapshotChunksApplied())) })
	s.reg.RegisterCounterFunc("qbets_repl_snapshot_aborts_total", "Torn chunked snapshot transfers discarded before commit.",
		func(emit func(string, float64)) { emit("", float64(f.SnapshotAborts())) })
}
