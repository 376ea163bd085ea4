package qbets

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/repl"
)

// Snapshots. One capture serves both follower catch-up and SaveFile: a
// header (shardManifest) plus ordered chunks, each a JSON object mapping
// stream keys to their cores. A capture holds the stream set (pointers,
// not state) and renders each chunk on demand under the per-stream read
// locks, so leader memory during catch-up is O(chunk), several followers
// catching up concurrently share one captured generation, and a save
// writes chunk i as shard file i. The install side adopts each chunk's
// streams cold into a pending set, and commit swaps the set in wholesale
// — a torn transfer or a damaged directory aborts before any visible
// state changes.

// defaultSnapshotChunkStreams is how many streams one snapshot chunk
// carries when SetSnapshotChunkStreams has not been called.
const defaultSnapshotChunkStreams = 256

// SetSnapshotChunkStreams overrides the per-chunk stream count for
// snapshots this service captures, for catch-up and save alike. Call
// before serving; n <= 0 restores the default. Small values are useful in
// tests that need many chunks from a small state.
func (s *Service) SetSnapshotChunkStreams(n int) { s.snapChunkStreams.Store(int64(n)) }

// replicaSnapStream implements repl.SnapshotStream over a captured stream
// set. AppendChunk is safe for concurrent use: each call renders its own
// chunk slice under per-stream read locks into the caller's buffer.
type replicaSnapStream struct {
	covered uint64
	header  []byte
	keys    []string
	sts     []*stream
	per     int
	chunks  int
}

// captureSnapshot captures the serving state in key order. The covered
// sequence is read BEFORE the stream set is captured: a record at or
// below it was durable — and therefore applied, under the same stream
// lock hold as its append — before the capture began, so the per-stream
// read locks taken while rendering chunks are guaranteed to observe it.
// Records applied during the capture may leak in; their sequence anchors
// ride along in the stream cores, so the follower's replay dedup drops
// the overlap.
func (s *Service) captureSnapshot() (*replicaSnapStream, error) {
	var covered uint64
	if s.wal != nil {
		covered = s.wal.SyncedSeq()
	}
	// A promoted leader's replicated prefix may sit above its (fresh)
	// local log's watermark; the snapshot covers that prefix too.
	if ra := s.replApplied.Load(); ra > covered {
		covered = ra
	}
	streams := s.snapshotStreams()
	keys := make([]string, 0, len(streams))
	for k := range streams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sts := make([]*stream, len(keys))
	for i, k := range keys {
		sts[i] = streams[k]
	}
	per := int(s.snapChunkStreams.Load())
	if per <= 0 {
		per = defaultSnapshotChunkStreams
	}
	// An empty registry still has one (empty) chunk, so a header that
	// declares none is always damage.
	chunks := max(1, (len(keys)+per-1)/per)
	header, err := json.Marshal(shardManifest{
		ByProcs:  s.byProcs.Load(),
		NextSeed: s.nextSeed.Load(),
		Shards:   chunks,
		Streams:  len(keys),
	})
	if err != nil {
		return nil, err
	}
	return &replicaSnapStream{covered: covered, header: header, keys: keys, sts: sts, per: per, chunks: chunks}, nil
}

// OpenReplicaSnapshotStream captures the serving state for chunked
// follower catch-up.
func (s *Service) OpenReplicaSnapshotStream() (repl.SnapshotStream, error) {
	return s.captureSnapshot()
}

func (r *replicaSnapStream) CoveredSeq() uint64 { return r.covered }
func (r *replicaSnapStream) Header() []byte     { return r.header }
func (r *replicaSnapStream) Chunks() int        { return r.chunks }
func (r *replicaSnapStream) Close()             {}

// AppendChunk renders chunk i — a JSON object mapping stream keys to
// their cores — into dst. Transient memory is O(chunk): one core marshal
// at a time, appended straight into the caller's buffer.
func (r *replicaSnapStream) AppendChunk(i int, dst []byte) ([]byte, error) {
	if i < 0 || i >= r.chunks {
		return nil, fmt.Errorf("qbets: snapshot chunk %d out of range (%d chunks)", i, r.chunks)
	}
	lo, hi := i*r.per, min((i+1)*r.per, len(r.keys))
	dst = append(dst, '{')
	for j := lo; j < hi; j++ {
		core, err := coreOf(r.keys[j], r.sts[j])
		if err != nil {
			return nil, err
		}
		doc, err := json.Marshal(core)
		if err != nil {
			return nil, err
		}
		if j == lo {
			// Size the chunk once from its first stream rather than
			// regrowing the buffer stream by stream.
			dst = slices.Grow(dst, (hi-lo)*(len(doc)+len(r.keys[j])+4))
		} else {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, r.keys[j])
		dst = append(dst, ':')
		dst = append(dst, doc...)
	}
	return append(dst, '}'), nil
}

// pendingInstall accumulates an incoming snapshot: streams adopted cold,
// chunk by chunk, invisible to readers until commit. The header's
// declared totals are kept so commit can refuse an incomplete install — a
// transport that reorders the end marker ahead of a chunk must not be
// able to install a truncated state.
type pendingInstall struct {
	header  shardManifest
	streams map[string]*stream
	next    int // next chunk index expected
}

// beginInstall parses a snapshot header into an empty pending install.
func beginInstall(header []byte) (*pendingInstall, error) {
	var h shardManifest
	if err := json.Unmarshal(header, &h); err != nil {
		return nil, fmt.Errorf("qbets: %w: snapshot header: %v", ErrCorruptState, err)
	}
	if h.Shards < 1 || h.Streams < 0 {
		return nil, fmt.Errorf("qbets: %w: snapshot header declares %d chunks, %d streams", ErrCorruptState, h.Shards, h.Streams)
	}
	return &pendingInstall{header: h, streams: make(map[string]*stream)}, nil
}

// decodeChunk parses one chunk. It touches no pending state, so chunks
// can decode in parallel ahead of their in-order adoption.
func decodeChunk(index int, chunk []byte) (map[string]shardStream, error) {
	var m map[string]shardStream
	if err := json.Unmarshal(chunk, &m); err != nil {
		return nil, fmt.Errorf("qbets: %w: snapshot chunk %d: %v", ErrCorruptState, index, err)
	}
	return m, nil
}

// apply adopts chunk index's streams cold — no forecaster history is
// decoded until a stream's first write.
func (p *pendingInstall) apply(s *Service, index int, m map[string]shardStream) error {
	if index != p.next || index >= p.header.Shards {
		return fmt.Errorf("qbets: %w: snapshot chunk %d out of order (expected %d of %d)", ErrCorruptState, index, p.next, p.header.Shards)
	}
	for k, core := range m {
		p.streams[k] = s.adoptColdStream(k, core)
	}
	p.next++
	return nil
}

// commit atomically replaces the serving state with the pending install,
// provided it holds every chunk and exactly the streams the header
// declared.
func (p *pendingInstall) commit(s *Service) error {
	if p.next != p.header.Shards || len(p.streams) != p.header.Streams {
		return fmt.Errorf("qbets: %w: install committed with %d of %d chunks and %d of %d streams",
			ErrCorruptState, p.next, p.header.Shards, len(p.streams), p.header.Streams)
	}
	s.byProcs.Store(p.header.ByProcs)
	s.nextSeed.Store(p.header.NextSeed)
	s.replaceStreams(p.streams)
	return nil
}

// BeginReplicaSnapshot starts a chunked install, discarding any earlier
// partial one (a torn transfer superseded by a fresh attempt).
func (s *Service) BeginReplicaSnapshot(coveredSeq uint64, header []byte) error {
	if !s.follower.Load() {
		return fmt.Errorf("qbets: BeginReplicaSnapshot on a non-follower")
	}
	p, err := beginInstall(header)
	if err != nil {
		return err
	}
	s.pendingSnapMu.Lock()
	s.pendingSnap = p
	s.pendingSnapMu.Unlock()
	return nil
}

// ApplyReplicaSnapshotChunk folds one chunk into the pending install.
func (s *Service) ApplyReplicaSnapshotChunk(index int, chunk []byte) error {
	m, err := decodeChunk(index, chunk)
	if err != nil {
		return err
	}
	s.pendingSnapMu.Lock()
	defer s.pendingSnapMu.Unlock()
	if s.pendingSnap == nil {
		return fmt.Errorf("qbets: snapshot chunk %d without a pending install", index)
	}
	return s.pendingSnap.apply(s, index, m)
}

// CommitReplicaSnapshot atomically replaces the serving state with the
// pending install.
func (s *Service) CommitReplicaSnapshot(coveredSeq uint64) error {
	s.pendingSnapMu.Lock()
	p := s.pendingSnap
	s.pendingSnap = nil
	s.pendingSnapMu.Unlock()
	if p == nil {
		return fmt.Errorf("qbets: CommitReplicaSnapshot without a pending install")
	}
	if err := p.commit(s); err != nil {
		return err
	}
	// The installed state is authoritative: it replaced whatever was
	// applied before, so the position resets to what it covers.
	s.replApplied.Store(coveredSeq)
	return nil
}

// AbortReplicaSnapshot discards a partial chunked install; serving state
// is untouched.
func (s *Service) AbortReplicaSnapshot() {
	s.pendingSnapMu.Lock()
	s.pendingSnap = nil
	s.pendingSnapMu.Unlock()
}
