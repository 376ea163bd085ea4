package repl

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
)

// ReplicaApp is the follower-side application surface: the forecast
// service in follower mode. ApplyReplicated must refuse batches that do
// not extend its applied prefix (the gap error forces a reconnect, which
// renegotiates position via the hello). Records passed to ApplyReplicated
// are only valid for the duration of the call — the decode buffer is
// reused — so implementations copy what they keep.
//
// A catch-up snapshot arrives chunk by chunk, so follower install memory
// is O(chunk) too: Begin/Apply/Commit follow the leader's
// snapBegin/snapChunk/snapEnd exactly, and Abort discards a partial
// install after a torn transfer (the reconnect hello then re-requests the
// snapshot from scratch).
type ReplicaApp interface {
	ReplicaAppliedSeq() uint64
	ApplyReplicated(prevSeq uint64, recs []wal.Record) error
	BeginReplicaSnapshot(coveredSeq uint64, header []byte) error
	ApplyReplicaSnapshotChunk(index int, chunk []byte) error
	CommitReplicaSnapshot(coveredSeq uint64) error
	AbortReplicaSnapshot()
}

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Addr is the leader's replication address.
	Addr string
	// Transport defaults to TCP.
	Transport Transport
	// Epochs persists the highest epoch this node has witnessed. Nil
	// keeps it in memory only (tests).
	Epochs EpochStore
	// BackoffMin/BackoffMax bound the reconnect backoff. Defaults 50ms
	// and 5s.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// HeartbeatTimeout severs a connection silent for this long; the
	// reconnect loop then renegotiates. Default 3s; negative disables.
	HeartbeatTimeout time.Duration
	// MaxLag is the degradation bound: when the follower's applied
	// sequence trails the leader's advertised watermark by more than
	// this, it reports Degraded. 0 means never degraded.
	MaxLag uint64
	// Rand drives reconnect jitter; defaults to the global source.
	Rand *rand.Rand
}

// Follower dials the leader, replays shipped batches (or installs
// chunked snapshots) through its app, and acknowledges applied sequences. It
// reconnects forever with capped exponential backoff plus jitter until
// Closed or Promoted.
type Follower struct {
	app ReplicaApp
	opt FollowerOptions

	mu     sync.Mutex
	epoch  uint64 // highest epoch witnessed, persisted before adopted
	conn   Conn
	closed bool

	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	connected   atomic.Bool
	leaderSeq   atomic.Uint64 // leader's advertised durability watermark
	lastBackoff atomic.Int64  // nanoseconds; Retry-After hint

	reconnects   atomic.Uint64
	batchesIn    atomic.Uint64
	recordsIn    atomic.Uint64
	snapshots    atomic.Uint64
	rejects      atomic.Uint64
	snapChunksIn atomic.Uint64
	snapAborts   atomic.Uint64
}

// NewFollower wires a follower to its app and leader address, loading
// the persisted epoch. Call Run on its own goroutine.
func NewFollower(app ReplicaApp, opt FollowerOptions) (*Follower, error) {
	if opt.Transport == nil {
		opt.Transport = TCP{}
	}
	if opt.BackoffMin <= 0 {
		opt.BackoffMin = 50 * time.Millisecond
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = 5 * time.Second
	}
	if opt.HeartbeatTimeout == 0 {
		opt.HeartbeatTimeout = 3 * time.Second
	}
	f := &Follower{app: app, opt: opt, done: make(chan struct{})}
	if opt.Epochs != nil {
		e, err := opt.Epochs.Load()
		if err != nil {
			return nil, err
		}
		f.epoch = e
	}
	return f, nil
}

// Run is the reconnect loop. It returns when the follower is closed.
func (f *Follower) Run() {
	f.wg.Add(1)
	defer f.wg.Done()
	attempt := 0
	for {
		select {
		case <-f.done:
			return
		default:
		}
		c, err := f.opt.Transport.Dial(f.opt.Addr)
		if err == nil {
			f.reconnects.Add(1)
			if f.session(c) {
				attempt = 0 // productive session: start the ladder over
			} else {
				attempt++
			}
		} else {
			attempt++
		}
		d := f.backoff(attempt)
		f.lastBackoff.Store(int64(d))
		select {
		case <-f.done:
			return
		case <-time.After(d):
		}
	}
}

// backoff returns the capped exponential delay for the given attempt,
// jittered across [d/2, d] so a herd of followers does not reconnect in
// lockstep.
func (f *Follower) backoff(attempt int) time.Duration {
	d := f.opt.BackoffMin
	for i := 0; i < attempt && d < f.opt.BackoffMax; i++ {
		d *= 2
	}
	if d > f.opt.BackoffMax {
		d = f.opt.BackoffMax
	}
	half := int64(d / 2)
	var j int64
	if half > 0 {
		if f.opt.Rand != nil {
			j = f.opt.Rand.Int63n(half + 1)
		} else {
			j = rand.Int63n(half + 1)
		}
	}
	return time.Duration(half + j)
}

// Close stops the reconnect loop and severs any live connection.
func (f *Follower) Close() {
	f.once.Do(func() { close(f.done) })
	f.mu.Lock()
	f.closed = true
	c := f.conn
	f.mu.Unlock()
	if c != nil {
		c.Close()
	}
	f.wg.Wait()
}

// Promote ends the follower's life and claims the next epoch, persisting
// it before returning. The caller then rebuilds the node as a leader
// with the returned epoch; any surviving ex-leader is fenced on first
// contact with it.
func (f *Follower) Promote() (uint64, error) {
	f.Close()
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.epoch + 1
	if f.opt.Epochs != nil {
		if err := f.opt.Epochs.Save(e); err != nil {
			return 0, err
		}
	}
	f.epoch = e
	return e, nil
}

// Epoch reports the highest epoch this follower has witnessed.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Connected reports whether a session with the leader is live.
func (f *Follower) Connected() bool { return f.connected.Load() }

// LeaderSeq reports the leader's last advertised durability watermark.
func (f *Follower) LeaderSeq() uint64 { return f.leaderSeq.Load() }

// Lag reports how far the applied state trails the leader's advertised
// watermark.
func (f *Follower) Lag() uint64 {
	ls, ap := f.leaderSeq.Load(), f.app.ReplicaAppliedSeq()
	if ls > ap {
		return ls - ap
	}
	return 0
}

// Degraded reports whether the lag bound is configured and exceeded —
// the follower then serves 503s rather than stale-beyond-bound reads.
func (f *Follower) Degraded() bool {
	return f.opt.MaxLag > 0 && f.Lag() > f.opt.MaxLag
}

// RetryAfter suggests how long a rejected client should wait: the
// current reconnect backoff when disconnected, else one second.
func (f *Follower) RetryAfter() time.Duration {
	if !f.connected.Load() {
		if d := time.Duration(f.lastBackoff.Load()); d > 0 {
			return d
		}
	}
	return time.Second
}

// Reconnects, BatchesApplied, RecordsApplied, SnapshotsInstalled,
// RejectsSent, SnapshotChunksApplied, and SnapshotAborts are cumulative
// counters for the metrics plane. SnapshotAborts counts torn chunked
// transfers discarded before commit.
func (f *Follower) Reconnects() uint64            { return f.reconnects.Load() }
func (f *Follower) BatchesApplied() uint64        { return f.batchesIn.Load() }
func (f *Follower) RecordsApplied() uint64        { return f.recordsIn.Load() }
func (f *Follower) SnapshotsInstalled() uint64    { return f.snapshots.Load() }
func (f *Follower) RejectsSent() uint64           { return f.rejects.Load() }
func (f *Follower) SnapshotChunksApplied() uint64 { return f.snapChunksIn.Load() }
func (f *Follower) SnapshotAborts() uint64        { return f.snapAborts.Load() }

// adoptEpoch persists then records a higher epoch learned from the wire.
func (f *Follower) adoptEpoch(e uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e <= f.epoch {
		return nil
	}
	if f.opt.Epochs != nil {
		if err := f.opt.Epochs.Save(e); err != nil {
			return err
		}
	}
	f.epoch = e
	return nil
}

func (f *Follower) maxLeaderSeq(seq uint64) {
	for {
		cur := f.leaderSeq.Load()
		if seq <= cur || f.leaderSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// session drives one connection: hello, then apply whatever the leader
// ships, acking after every message. Returns whether the session made
// progress (applied anything), which resets the backoff ladder.
func (f *Follower) session(c Conn) (productive bool) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		c.Close()
		return false
	}
	f.conn = c
	f.mu.Unlock()
	defer func() {
		c.Close()
		f.mu.Lock()
		f.conn = nil
		f.mu.Unlock()
		f.connected.Store(false)
	}()

	var sbuf []byte
	var err error
	if sbuf, err = f.send(c, sbuf, message{kind: msgHello, epoch: f.Epoch(), arg: f.app.ReplicaAppliedSeq()}); err != nil {
		return false
	}
	f.connected.Store(true)

	// Watchdog: a silent connection (no batches, no heartbeats) is dead
	// even if TCP has not noticed; sever it and let the backoff loop
	// renegotiate.
	var lastMsg atomic.Int64
	lastMsg.Store(time.Now().UnixNano())
	stop := make(chan struct{})
	defer close(stop)
	if hbt := f.opt.HeartbeatTimeout; hbt > 0 {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			tick := time.NewTicker(hbt / 4)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-f.done:
					return
				case <-tick.C:
					if time.Since(time.Unix(0, lastMsg.Load())) > hbt {
						c.Close()
						return
					}
				}
			}
		}()
	}

	// snap tracks a chunked install in progress. Any protocol deviation —
	// a hole in the chunk indices, a checksum mismatch, an unexpected
	// message — aborts the partial install and drops the session; the
	// reconnect hello re-requests the snapshot from scratch.
	var snap snapState
	defer func() {
		if snap.active {
			f.abortSnap(&snap)
		}
	}()
	var dec wal.FrameDecoder
	for {
		b, rerr := c.Recv()
		if rerr != nil {
			return productive
		}
		lastMsg.Store(time.Now().UnixNano())
		m, derr := decodeMessage(b)
		if derr != nil {
			return productive
		}
		known := f.Epoch()
		if m.epoch < known {
			// A stale leader. Tell it about the higher epoch — this is
			// the fence — and drop the session.
			f.send(c, sbuf, message{kind: msgReject, epoch: known})
			f.rejects.Add(1)
			return productive
		}
		if m.epoch > known {
			if f.adoptEpoch(m.epoch) != nil {
				return productive
			}
		}
		if snap.active && m.kind != msgSnapChunk && m.kind != msgSnapEnd && m.kind != msgHeartbeat {
			// The leader never interleaves other traffic with a chunk
			// stream; anything else means the stream is torn.
			f.abortSnap(&snap)
			return productive
		}
		switch m.kind {
		case msgSnapBegin:
			if f.app.BeginReplicaSnapshot(m.arg, m.payload) != nil {
				return productive
			}
			snap.active, snap.covered, snap.next = true, m.arg, 0
			// No ack: the chunk window is driven by snapAcks, and the
			// applied watermark has not moved yet.
			continue
		case msgSnapChunk:
			if !snap.active || m.arg != uint64(snap.next) || len(m.payload) < 4 ||
				crc32.Checksum(m.payload[4:], tcpCastagnoli) != binary.LittleEndian.Uint32(m.payload[:4]) {
				f.abortSnap(&snap)
				return productive
			}
			if f.app.ApplyReplicaSnapshotChunk(snap.next, m.payload[4:]) != nil {
				f.abortSnap(&snap)
				return productive
			}
			snap.next++
			f.snapChunksIn.Add(1)
			if sbuf, err = f.send(c, sbuf, message{kind: msgSnapAck, epoch: f.Epoch(), arg: m.arg}); err != nil {
				return productive
			}
			continue
		case msgSnapEnd:
			if !snap.active || m.arg != snap.covered || f.app.CommitReplicaSnapshot(snap.covered) != nil {
				f.abortSnap(&snap)
				return productive
			}
			snap.active = false
			f.snapshots.Add(1)
			f.maxLeaderSeq(snap.covered)
			productive = true
		case msgBatch:
			recs, ferr := dec.Decode(m.payload)
			if ferr != nil {
				return productive
			}
			if f.app.ApplyReplicated(m.arg, recs) != nil {
				// Gap (reordered past our prefix) or shutdown: reconnect
				// and renegotiate position.
				return productive
			}
			f.batchesIn.Add(1)
			f.recordsIn.Add(uint64(len(recs)))
			if n := len(recs); n > 0 {
				f.maxLeaderSeq(recs[n-1].Seq)
			}
			productive = true
		case msgHeartbeat:
			f.maxLeaderSeq(m.arg)
			if snap.active {
				// Mid-transfer keepalive: no applied progress to ack.
				continue
			}
		case msgReject:
			// Higher epoch was already adopted above; nothing to apply.
			return productive
		}
		if sbuf, err = f.send(c, sbuf, message{kind: msgAck, epoch: f.Epoch(), arg: f.app.ReplicaAppliedSeq()}); err != nil {
			return productive
		}
	}
}

// snapState is one in-progress chunked install: the expected next chunk
// and the covered sequence the commit will claim.
type snapState struct {
	active  bool
	covered uint64
	next    int
}

// abortSnap discards a partial chunked install after a torn transfer.
func (f *Follower) abortSnap(s *snapState) {
	f.app.AbortReplicaSnapshot()
	s.active = false
	f.snapAborts.Add(1)
}

func (f *Follower) send(c Conn, buf []byte, m message) ([]byte, error) {
	buf = encodeMessage(buf[:0], m)
	return buf, c.Send(buf)
}
