package crashprop

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/repl"
	"repro/internal/wal"
	"repro/qbets"
)

// Replication trials extend the power-cut harness across processes: a
// leader ships its WAL to a follower over the fault-injectable in-memory
// transport, and the oracle property becomes the replicated-serving
// claim — an acked write is never lost across leader crash and failover,
// and a follower's served state is always the state of an oracle fed a
// prefix of the leader's acked log. Scenarios cover the steady path
// (including delayed and reordered delivery), a network partition with
// reconnect, a leader power cut under synchronous replication, an
// epoch-fenced failover, and snapshot catch-up of a late follower whose
// cursor fell off the compacted log.

// Replication trial scenarios.
const (
	// ScenarioSteady replicates a workload live, optionally through a
	// delaying/reordering transport, and requires convergence.
	ScenarioSteady = "steady"
	// ScenarioPartition severs and partitions the transport mid-workload;
	// the follower must reconnect and converge after the heal.
	ScenarioPartition = "partition"
	// ScenarioLeaderCrash power-cuts the leader under synchronous
	// replication: every acked write must already be on the follower, and
	// leader recovery must replay at least the acked prefix.
	ScenarioLeaderCrash = "leadercrash"
	// ScenarioFailover promotes the follower to a new epoch; the deposed
	// leader must be fenced — refusing every subsequent ack — while the
	// new leader serves writes on top of the replicated prefix.
	ScenarioFailover = "failover"
	// ScenarioCatchup connects the follower only after the leader's log
	// has been compacted, forcing snapshot-based catch-up.
	ScenarioCatchup = "catchup"
	// ScenarioFanout replicates one leader to three followers at once;
	// every follower must converge to the acked-prefix oracle exactly.
	ScenarioFanout = "fanout"
	// ScenarioQuorum runs synchronous replication with commit quorum
	// K=2 of 3 followers: writes keep committing after one follower drops
	// (2 >= K), and are refused once a second drops (1 < K) — while the
	// refused-but-durable record still ships to the survivor.
	ScenarioQuorum = "quorum"
	// ScenarioTornSnapshot severs the transport mid-chunked-snapshot (a
	// torn shard stream): the follower must discard the partial install,
	// reconnect, re-request the snapshot from scratch, and converge to
	// the acked-prefix oracle exactly.
	ScenarioTornSnapshot = "tornsnapshot"
)

// ReplTrialConfig parameterizes one replication trial. As with
// TrialConfig, everything random derives from Seed.
type ReplTrialConfig struct {
	Seed     int64
	Scenario string
	// Delay and Reorder inject transport chaos (steady scenario).
	Delay   bool
	Reorder bool
	// Records bounds the workload; 0 draws 60–220 records from the seed.
	Records int
}

// ReplTrialResult reports what a replication trial measured. Counts are
// quiescent (taken at barriers, after convergence) and the outcomes are
// booleans, so a fixed seed yields byte-identical results run to run.
type ReplTrialResult struct {
	// Appended is how many observations leaders accepted across the trial.
	Appended int
	// Acked is how many of them were acknowledged to the writer — under
	// synchronous replication that means follower-applied, not just
	// locally durable.
	Acked int
	// Converged: the follower's applied prefix reached the leader's
	// durable watermark and their served state matched the oracle.
	Converged bool
	// PrefixConsistent: at every quiescent check, follower state equaled
	// an oracle fed a prefix of the leader's acked log.
	PrefixConsistent bool
	// SnapshotInstalled: the follower caught up via at least one
	// full-state snapshot.
	SnapshotInstalled bool
	// Reconnected: the follower established at least two sessions
	// (severed and came back).
	Reconnected bool
	// Fenced: the deposed leader observed the higher epoch.
	Fenced bool
	// FencedAckRefused: a write on the deposed leader was refused after
	// deposition (the fenced leader can never ack).
	FencedAckRefused bool
	// RecoveredAllAcked: recovery of the crashed leader replayed every
	// acked record.
	RecoveredAllAcked bool
	// FanoutConverged: every follower in the fan-out converged to the
	// acked-prefix oracle exactly.
	FanoutConverged bool
	// QuorumRefusedBelowK: with fewer than K followers reachable, a
	// synchronous write was refused rather than acked.
	QuorumRefusedBelowK bool
	// TornTransfer: the follower discarded at least one partial chunked
	// snapshot install (a torn shard stream).
	TornTransfer bool
}

// replNode bundles one service with its WAL and filesystem.
type replNode struct {
	fs  *wal.MemFS
	w   *wal.WAL
	svc *qbets.Service
}

func newReplNode(segBytes int64) (*replNode, error) {
	fs := wal.NewMemFS()
	w, err := wal.Open("wal", wal.Options{FS: fs, Mode: wal.SyncEachRecord, SegmentBytes: segBytes})
	if err != nil {
		return nil, fmt.Errorf("open wal: %w", err)
	}
	svc := qbets.NewService(false, qbets.WithSeed(1))
	if _, err := svc.RecoverWAL(w); err != nil {
		return nil, fmt.Errorf("attach wal: %w", err)
	}
	return &replNode{fs: fs, w: w, svc: svc}, nil
}

// waitUntil polls cond to true within a generous deadline; replication
// trials are event-driven, so in practice this returns in milliseconds.
func waitUntil(what string, cond func() bool) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("timed out waiting for %s", what)
}

type replObs struct {
	queue string
	wait  float64
}

// observeWorkload drives n seeded observations into svc, recording them
// for the oracle.
func observeWorkload(svc *qbets.Service, rng *rand.Rand, n int, log *[]replObs) error {
	for i := 0; i < n; i++ {
		q := TrialQueues[rng.Intn(len(TrialQueues))]
		wait := rng.ExpFloat64() * 600
		if err := svc.Observe(q, 1, wait); err != nil {
			return fmt.Errorf("observe %d: %w", len(*log), err)
		}
		*log = append(*log, replObs{q, wait})
	}
	return nil
}

// oracleFor replays the first n logged observations into a fresh service.
func oracleFor(log []replObs, n int) (*qbets.Service, error) {
	o := qbets.NewService(false, qbets.WithSeed(1))
	for _, r := range log[:n] {
		if err := o.Observe(r.queue, 1, r.wait); err != nil {
			return nil, fmt.Errorf("oracle observe: %w", err)
		}
	}
	return o, nil
}

// startFollower builds a follower node and its repl.Follower against tr.
func startFollower(tr *repl.MemTransport, addr string, epochs repl.EpochStore, seed int64) (*qbets.Service, *repl.Follower, error) {
	svc := qbets.NewService(false, qbets.WithSeed(1))
	svc.SetFollower(true)
	f, err := repl.NewFollower(svc, repl.FollowerOptions{
		Addr:       addr,
		Transport:  tr,
		Epochs:     epochs,
		BackoffMin: time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Rand:       rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		return nil, nil, err
	}
	go f.Run()
	return svc, f, nil
}

// RunReplTrial executes one replication trial and checks the scenario's
// clauses of the replicated-serving property. A nil error means every
// clause held.
func RunReplTrial(cfg ReplTrialConfig) (ReplTrialResult, error) {
	var res ReplTrialResult
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Records
	if n == 0 {
		n = 60 + rng.Intn(160)
	}

	tr := repl.NewMemTransport()
	if cfg.Delay {
		tr.SetDelay(2 * time.Millisecond)
	}
	if cfg.Reorder {
		tr.SetReorder(0.25, rand.New(rand.NewSource(cfg.Seed+1)))
	}

	leader, err := newReplNode(0)
	if err != nil {
		return res, err
	}
	ln, err := tr.Listen("leader")
	if err != nil {
		return res, err
	}
	ldrEpochs := &repl.MemEpochStore{}
	ldrOpt := repl.LeaderOptions{Epoch: 1, HeartbeatEvery: 10 * time.Millisecond}
	if cfg.Scenario == ScenarioQuorum {
		// K=2 of 3: commits need two follower acks. The timeout bounds the
		// below-quorum refusal probe, not the happy path (which is
		// event-driven and milliseconds).
		ldrOpt.Quorum = 2
		ldrOpt.CommitTimeout = 750 * time.Millisecond
	}
	ldr := repl.NewLeader(leader.w, leader.svc, ldrOpt)
	defer ldr.Close()
	go ldr.Serve(ln)
	_ = ldrEpochs.Save(1)

	folEpochs := &repl.MemEpochStore{}
	var log []replObs

	// quiesce drives the follower to the leader's durable watermark and
	// proves prefix consistency there: the follower's served state equals
	// an oracle fed exactly the acked log.
	quiesce := func(folSvc *qbets.Service, upto int) error {
		target := uint64(upto)
		if err := waitUntil("follower to reach the leader's watermark", func() bool {
			return folSvc.ReplicaAppliedSeq() >= target
		}); err != nil {
			return err
		}
		oracle, err := oracleFor(log, upto)
		if err != nil {
			return err
		}
		if err := Equivalent(folSvc, oracle); err != nil {
			return fmt.Errorf("follower state diverged from acked-prefix oracle: %w", err)
		}
		res.PrefixConsistent = true
		return nil
	}

	switch cfg.Scenario {
	case ScenarioSteady, "":
		folSvc, fol, err := startFollower(tr, "leader", folEpochs, cfg.Seed+2)
		if err != nil {
			return res, err
		}
		defer fol.Close()
		if err := observeWorkload(leader.svc, rng, n, &log); err != nil {
			return res, err
		}
		res.Appended, res.Acked = len(log), len(log)
		if err := quiesce(folSvc, len(log)); err != nil {
			return res, err
		}
		res.Converged = true

	case ScenarioPartition:
		folSvc, fol, err := startFollower(tr, "leader", folEpochs, cfg.Seed+2)
		if err != nil {
			return res, err
		}
		defer fol.Close()
		half := n / 2
		if err := observeWorkload(leader.svc, rng, half, &log); err != nil {
			return res, err
		}
		if err := quiesce(folSvc, len(log)); err != nil {
			return res, err
		}
		// Partition: refuse new dials, drop the live session and anything
		// in flight. Writes continue on the leader meanwhile.
		tr.Partition(true)
		tr.Sever()
		if err := observeWorkload(leader.svc, rng, n-half, &log); err != nil {
			return res, err
		}
		tr.Partition(false)
		res.Appended, res.Acked = len(log), len(log)
		if err := quiesce(folSvc, len(log)); err != nil {
			return res, err
		}
		res.Converged = true
		res.Reconnected = fol.Reconnects() >= 2

	case ScenarioLeaderCrash:
		folSvc, fol, err := startFollower(tr, "leader", folEpochs, cfg.Seed+2)
		if err != nil {
			return res, err
		}
		defer fol.Close()
		// Synchronous replication: an observe acks only after the
		// follower applied it.
		leader.svc.SetCommitHook(ldr.CommitWait)
		if err := observeWorkload(leader.svc, rng, n, &log); err != nil {
			return res, err
		}
		res.Appended, res.Acked = len(log), len(log)
		// Power cut: sever the wire, kill the leader process, crash its
		// filesystem. Every acked write must already be on the follower.
		tr.Sever()
		ldr.Close()
		leader.fs.Crash(rng)
		if folSvc.ReplicaAppliedSeq() < uint64(res.Acked) {
			return res, fmt.Errorf("follower applied %d, but %d writes were acked", folSvc.ReplicaAppliedSeq(), res.Acked)
		}
		oracle, err := oracleFor(log, len(log))
		if err != nil {
			return res, err
		}
		if err := Equivalent(folSvc, oracle); err != nil {
			return res, fmt.Errorf("follower lost acked state across leader crash: %w", err)
		}
		res.PrefixConsistent, res.Converged = true, true
		// The crashed leader's own recovery must also hold the acked
		// prefix (it was synced-durable before each ack).
		w2, err := wal.Open("wal", wal.Options{FS: leader.fs})
		if err != nil {
			return res, fmt.Errorf("reopen crashed wal: %w", err)
		}
		recovered := qbets.NewService(false, qbets.WithSeed(1))
		stats, err := recovered.RecoverWAL(w2)
		if err != nil {
			return res, fmt.Errorf("leader recovery failed: %w", err)
		}
		res.RecoveredAllAcked = stats.Records >= res.Acked
		if !res.RecoveredAllAcked {
			return res, fmt.Errorf("leader recovery replayed %d of %d acked records", stats.Records, res.Acked)
		}

	case ScenarioFailover:
		folSvc, fol, err := startFollower(tr, "leader", folEpochs, cfg.Seed+2)
		if err != nil {
			return res, err
		}
		defer fol.Close()
		leader.svc.SetCommitHook(ldr.CommitWait)
		half := n / 2
		if err := observeWorkload(leader.svc, rng, half, &log); err != nil {
			return res, err
		}
		if err := quiesce(folSvc, len(log)); err != nil {
			return res, err
		}
		// Failover: the follower claims the next epoch and becomes a
		// leader on a fresh log whose sequence space continues the
		// replicated prefix.
		newEpoch, err := fol.Promote()
		if err != nil {
			return res, fmt.Errorf("promote follower: %w", err)
		}
		fs2 := wal.NewMemFS()
		w2, err := wal.Open("wal", wal.Options{FS: fs2, Mode: wal.SyncEachRecord})
		if err != nil {
			return res, err
		}
		if _, err := folSvc.Promote(w2); err != nil {
			return res, fmt.Errorf("promote service: %w", err)
		}
		ln2, err := tr.Listen("leader2")
		if err != nil {
			return res, err
		}
		ldr2 := repl.NewLeader(w2, folSvc, repl.LeaderOptions{Epoch: newEpoch, HeartbeatEvery: 10 * time.Millisecond})
		defer ldr2.Close()
		go ldr2.Serve(ln2)
		// The new epoch reaches the deposed leader (any session carrying
		// it fences — here, the ex-follower's epoch store is reused by
		// the messenger session).
		fencer, err := repl.NewFollower(nopReplicaApp{}, repl.FollowerOptions{
			Addr:       "leader",
			Transport:  tr,
			Epochs:     folEpochs,
			BackoffMin: time.Millisecond,
			BackoffMax: 20 * time.Millisecond,
			Rand:       rand.New(rand.NewSource(cfg.Seed + 3)),
		})
		if err != nil {
			return res, err
		}
		go fencer.Run()
		if err := waitUntil("deposed leader to fence", ldr.Fenced); err != nil {
			return res, err
		}
		fencer.Close()
		res.Fenced = true
		// The fenced ex-leader can never ack again: its commit wait fails
		// even for sequences acked before deposition, so the write is
		// refused.
		err = leader.svc.Observe(TrialQueues[0], 1, 1)
		res.FencedAckRefused = errors.Is(err, qbets.ErrReadOnly)
		if !res.FencedAckRefused {
			return res, fmt.Errorf("deposed leader acked a write (err=%v)", err)
		}
		// The promoted leader serves writes on top of the replicated
		// prefix; its state must equal an oracle fed old-term acks plus
		// the new-term workload.
		if err := observeWorkload(folSvc, rng, n-half, &log); err != nil {
			return res, fmt.Errorf("write on promoted leader: %w", err)
		}
		res.Appended, res.Acked = len(log), len(log)
		oracle, err := oracleFor(log, len(log))
		if err != nil {
			return res, err
		}
		if err := Equivalent(folSvc, oracle); err != nil {
			return res, fmt.Errorf("promoted leader diverged from oracle: %w", err)
		}
		res.Converged = true

	case ScenarioCatchup:
		// Workload and compaction happen before the follower exists, so
		// its cursor starts below the retained log and only a snapshot
		// can catch it up.
		if err := observeWorkload(leader.svc, rng, n, &log); err != nil {
			return res, err
		}
		res.Appended, res.Acked = len(log), len(log)
		cut, err := leader.w.Rotate()
		if err != nil {
			return res, fmt.Errorf("rotate: %w", err)
		}
		if err := leader.w.RemoveSegmentsBelow(cut); err != nil {
			return res, fmt.Errorf("compact: %w", err)
		}
		folSvc, fol, err := startFollower(tr, "leader", folEpochs, cfg.Seed+2)
		if err != nil {
			return res, err
		}
		defer fol.Close()
		if err := quiesce(folSvc, len(log)); err != nil {
			return res, err
		}
		res.Converged = true
		res.SnapshotInstalled = fol.SnapshotsInstalled() >= 1
		if !res.SnapshotInstalled {
			return res, fmt.Errorf("follower converged without the required snapshot")
		}
		// Catch-up keeps working live: post-snapshot appends still ship.
		if err := observeWorkload(leader.svc, rng, 5, &log); err != nil {
			return res, err
		}
		res.Appended, res.Acked = len(log), len(log)
		if err := quiesce(folSvc, len(log)); err != nil {
			return res, err
		}

	case ScenarioFanout:
		// Frame-once/ship-many: three followers ride one leader, and every
		// one must converge to the same acked-prefix oracle.
		const fanout = 3
		folSvcs := make([]*qbets.Service, fanout)
		for i := 0; i < fanout; i++ {
			folSvc, fol, err := startFollower(tr, "leader", &repl.MemEpochStore{}, cfg.Seed+2+int64(i))
			if err != nil {
				return res, err
			}
			defer fol.Close()
			folSvcs[i] = folSvc
		}
		if err := observeWorkload(leader.svc, rng, n, &log); err != nil {
			return res, err
		}
		res.Appended, res.Acked = len(log), len(log)
		for _, folSvc := range folSvcs {
			if err := quiesce(folSvc, len(log)); err != nil {
				return res, err
			}
		}
		res.Converged = true
		res.FanoutConverged = true

	case ScenarioQuorum:
		// Synchronous replication with commit quorum K=2 of 3 (set in the
		// leader options above).
		leader.svc.SetCommitHook(ldr.CommitWait)
		folSvcs := make([]*qbets.Service, 3)
		fols := make([]*repl.Follower, 3)
		for i := range fols {
			folSvc, fol, err := startFollower(tr, "leader", &repl.MemEpochStore{}, cfg.Seed+2+int64(i))
			if err != nil {
				return res, err
			}
			defer fol.Close()
			folSvcs[i], fols[i] = folSvc, fol
		}
		half := n / 2
		if err := observeWorkload(leader.svc, rng, half, &log); err != nil {
			return res, err
		}
		for _, folSvc := range folSvcs {
			if err := quiesce(folSvc, len(log)); err != nil {
				return res, err
			}
		}
		// One follower drops. Two remain — still >= K, so writes keep
		// acking without it.
		fols[2].Close()
		if err := observeWorkload(leader.svc, rng, n-half, &log); err != nil {
			return res, err
		}
		res.Appended, res.Acked = len(log), len(log)
		for _, folSvc := range folSvcs[:2] {
			if err := quiesce(folSvc, len(log)); err != nil {
				return res, err
			}
		}
		res.Converged = true
		// A second drop leaves one reachable follower — below K. The next
		// write must be refused: it is appended and durable on the leader
		// (apply-then-wait), but the ack is withheld.
		fols[1].Close()
		probeErr := leader.svc.Observe(TrialQueues[0], 1, 1)
		res.QuorumRefusedBelowK = errors.Is(probeErr, qbets.ErrReadOnly)
		if !res.QuorumRefusedBelowK {
			return res, fmt.Errorf("below-quorum write was not refused (err=%v)", probeErr)
		}
		// The refused-but-durable record still ships: the survivor converges
		// to the full durable log, ack or no ack.
		log = append(log, replObs{TrialQueues[0], 1})
		res.Appended = len(log)
		if err := quiesce(folSvcs[0], len(log)); err != nil {
			return res, err
		}

	case ScenarioTornSnapshot:
		// One stream per chunk, so the tiny trial state still yields a
		// multi-chunk transfer to tear.
		leader.svc.SetSnapshotChunkStreams(1)
		if err := observeWorkload(leader.svc, rng, n, &log); err != nil {
			return res, err
		}
		res.Appended, res.Acked = len(log), len(log)
		cut, err := leader.w.Rotate()
		if err != nil {
			return res, fmt.Errorf("rotate: %w", err)
		}
		if err := leader.w.RemoveSegmentsBelow(cut); err != nil {
			return res, fmt.Errorf("compact: %w", err)
		}
		// Sever after four message deliveries: hello, snapBegin, and two
		// more. The workload touches at least three queues, so at least
		// three chunks were coming and snapEnd cannot have been delivered —
		// the transfer is torn mid-chunk-stream no matter how the two
		// directions interleave.
		tr.SeverAfter(4)
		folSvc, fol, err := startFollower(tr, "leader", folEpochs, cfg.Seed+2)
		if err != nil {
			return res, err
		}
		defer fol.Close()
		if err := quiesce(folSvc, len(log)); err != nil {
			return res, err
		}
		res.Converged = true
		res.SnapshotInstalled = fol.SnapshotsInstalled() >= 1
		res.TornTransfer = fol.SnapshotAborts() >= 1
		res.Reconnected = fol.Reconnects() >= 2
		if !res.TornTransfer {
			return res, fmt.Errorf("transfer was not torn (aborts=%d, reconnects=%d)", fol.SnapshotAborts(), fol.Reconnects())
		}
		if !res.SnapshotInstalled {
			return res, fmt.Errorf("follower converged without the required snapshot")
		}
		// The re-requested install keeps serving the live tail.
		if err := observeWorkload(leader.svc, rng, 5, &log); err != nil {
			return res, err
		}
		res.Appended, res.Acked = len(log), len(log)
		if err := quiesce(folSvc, len(log)); err != nil {
			return res, err
		}

	default:
		return res, fmt.Errorf("unknown scenario %q", cfg.Scenario)
	}
	return res, nil
}

// nopReplicaApp is the minimal app for a session whose only job is to
// carry an epoch (the failover fencing messenger).
type nopReplicaApp struct{}

func (nopReplicaApp) ReplicaAppliedSeq() uint64                   { return 0 }
func (nopReplicaApp) ApplyReplicated(uint64, []wal.Record) error  { return nil }
func (nopReplicaApp) BeginReplicaSnapshot(uint64, []byte) error   { return nil }
func (nopReplicaApp) ApplyReplicaSnapshotChunk(int, []byte) error { return nil }
func (nopReplicaApp) CommitReplicaSnapshot(uint64) error          { return nil }
func (nopReplicaApp) AbortReplicaSnapshot()                       {}
