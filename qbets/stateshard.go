package qbets

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Service persistence. A saved state is the same snapshot a follower
// catch-up streams (replicastream.go): a header plus ordered chunks, each
// chunk a JSON object of per-stream cores. On disk the header is the
// manifest and chunk i is shard file i, byte for byte. A restore installs
// the chunks through the follower's pending install, so it carries the
// same completeness guards, and adopts every stream *cold*: the summary
// core becomes the stream's forecast snapshot directly, the serialized
// forecaster stays the cold blob, and no BMBP state is decoded until a
// stream's first write rehydrates it (evict.go). Restoring 1M streams
// costs 1M small struct builds, not 1M history decodes.
//
// On-disk layout (path is a directory):
//
//	path/CURRENT           — name of the live generation directory
//	path/gen-<unixnano>/
//	    manifest.json      — the snapshot header
//	    shard-0000.json …  — chunk 0, 1, …
//
// A save writes a complete new generation, fsyncs it, then atomically
// republishes CURRENT — the same crash story as writeFileAtomic, one
// level up. Old generations are deleted best-effort after the swap;
// QuarantineStateFile renames the whole directory.
//
// Directories written by earlier builds, whose shard files partition the
// streams by key hash rather than in key order, load unchanged: a chunk
// may hold any set of streams. A single state file from before the
// directory format is refused (opening path/CURRENT fails with ENOTDIR,
// which is neither corruption nor absence) and left as it is.

// shardManifest is the snapshot header, the manifest on disk and the
// snapBegin payload on the wire: the service-level settings plus the
// chunk (shard) and stream counts a complete install must deliver.
type shardManifest struct {
	ByProcs  bool  `json:"by_procs"`
	NextSeed int64 `json:"next_seed"`
	Shards   int   `json:"shards"`
	Streams  int   `json:"streams"`
}

// shardStream is one stream in a chunk: the serialized forecaster plus
// the summary core a cold adoption needs to publish an exact forecast
// snapshot without decoding State.
type shardStream struct {
	State           []byte  `json:"state"`
	Seq             uint64  `json:"seq,omitempty"`
	Bound           float64 `json:"bound,omitempty"`
	BoundOK         bool    `json:"bound_ok,omitempty"`
	Observations    int     `json:"observations,omitempty"`
	MinObservations int     `json:"min_observations,omitempty"`
	Trims           int     `json:"trims,omitempty"`
	LastTrimUnix    int64   `json:"last_trim_unix,omitempty"`
}

const (
	currentFile  = "CURRENT"
	manifestFile = "manifest.json"
)

// coreLocked captures a stream's summary core. Caller holds at least the
// stream's read lock. For a hydrated stream the forecaster is settled (the
// write paths' eager-refit invariant), so Forecast is a pure read; for a
// cold stream the published snapshot is exact — eviction publishes before
// dropping the forecaster.
func (st *stream) coreLocked() (blob []byte, core shardStream, err error) {
	if st.fc != nil {
		blob, err = st.fc.MarshalBinary()
		if err != nil {
			return nil, core, err
		}
		bound, ok := st.fc.Forecast()
		core = shardStream{
			Bound: bound, BoundOK: ok,
			Observations:    st.fc.Observations(),
			MinObservations: st.fc.MinObservations(),
			Trims:           st.fc.ChangePoints(),
			LastTrimUnix:    st.lastTrimUnix,
		}
	} else {
		blob = st.cold
		snap := st.snap.Load()
		core = shardStream{
			Bound: snap.boundSeconds, BoundOK: snap.boundOK,
			Observations:    snap.observations,
			MinObservations: snap.minObservations,
			Trims:           snap.trims,
			LastTrimUnix:    snap.lastTrimUnix,
		}
	}
	core.Seq = st.lastSeq
	return blob, core, nil
}

// coreOf renders one stream's saved core under its read lock.
func coreOf(k string, st *stream) (shardStream, error) {
	st.mu.RLock()
	blob, core, err := st.coreLocked()
	st.mu.RUnlock()
	if err != nil {
		return shardStream{}, fmt.Errorf("qbets: stream %q: %w", k, err)
	}
	core.State = blob
	return core, nil
}

// adoptColdStream builds an evicted stream straight from its saved core:
// the published snapshot comes from the summary fields and the serialized
// forecaster stays cold until the stream's first write. O(1) per stream —
// no history decode, no refit.
func (s *Service) adoptColdStream(key string, core shardStream) *stream {
	st := &stream{
		key:          key,
		hit:          obs.NewRollingRate(hitRateWindow),
		cold:         core.State,
		trimsSeen:    core.Trims,
		lastTrimUnix: core.LastTrimUnix,
		lastSeq:      core.Seq,
	}
	st.evicted.Store(true)
	st.lastTouch.Store(s.clock.Load())
	st.snap.Store(&forecastSnapshot{
		gen:             1,
		boundSeconds:    core.Bound,
		boundOK:         core.BoundOK,
		observations:    core.Observations,
		minObservations: core.MinObservations,
		trims:           core.Trims,
		lastTrimUnix:    core.LastTrimUnix,
	})
	return st
}

func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.json", i) }

// SaveFile writes the service's state as a new generation under the
// directory path, creating it if needed. Chunks render and write in
// parallel. Safe to call while serving: streams are read-locked one at a
// time. Overlapping saves run one after the other.
//
// When a write-ahead log is attached, a successful save also compacts it:
// the log is rotated before the snapshot is taken, and once the snapshot
// is durably on disk the segments it fully covers are deleted. The
// ordering makes the window crash-safe in both directions — a crash
// before the snapshot lands leaves every segment in place (recovery
// replays a little extra, skipped via the per-stream sequence numbers),
// and segments are only deleted after the snapshot that supersedes them
// is readable. Compaction failures are counted but do not fail the save:
// the snapshot is good, the log is merely longer than necessary.
func (s *Service) SaveFile(path string) error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	cut, rotated := s.preSaveRotate()
	snap, err := s.captureSnapshot()
	if err != nil {
		return err
	}
	gen := fmt.Sprintf("gen-%d", time.Now().UnixNano())
	genDir := filepath.Join(path, gen)
	if err := os.MkdirAll(genDir, 0o755); err != nil {
		return err
	}
	// The generation's files need no rename of their own: nothing reads
	// them until CURRENT names the generation.
	errs := make([]error, snap.chunks)
	parallel.ForEachIndex(snap.chunks, func(i int) {
		doc, err := snap.AppendChunk(i, nil)
		if err == nil {
			err = writeFileSynced(filepath.Join(genDir, shardFileName(i)), doc)
		}
		errs[i] = err
	})
	err = errors.Join(errs...)
	if err == nil {
		err = writeFileSynced(filepath.Join(genDir, manifestFile), snap.header)
	}
	if err == nil {
		err = syncDir(genDir)
	}
	// Publish: CURRENT names the new generation. writeFileAtomic fsyncs
	// the file and dir, so after this returns a crash recovers the new
	// generation, before it the old one — never a torn mix.
	if err == nil {
		err = writeFileAtomic(filepath.Join(path, currentFile), []byte(gen+"\n"))
	}
	if err != nil {
		os.RemoveAll(genDir)
		return err
	}
	// Old generations are garbage now; deleting them is best-effort.
	if ents, err := os.ReadDir(path); err == nil {
		for _, e := range ents {
			if e.IsDir() && strings.HasPrefix(e.Name(), "gen-") && e.Name() != gen {
				os.RemoveAll(filepath.Join(path, e.Name()))
			}
		}
	}
	s.postSaveCompact(cut, rotated)
	return nil
}

// LoadFile restores state saved by SaveFile into the receiver, replacing
// the current stream set wholesale. A missing directory surfaces as
// os.IsNotExist; a damaged generation as ErrCorruptState. Shard files
// decode in parallel; adoption into the pending install runs in chunk
// order. Safe while serving: readers mid-flight finish against the old
// stream set, and a failed load changes nothing.
func (s *Service) LoadFile(path string) error {
	cur, err := os.ReadFile(filepath.Join(path, currentFile))
	if err != nil {
		return err
	}
	gen := strings.TrimSpace(string(cur))
	if gen == "" || strings.Contains(gen, "/") {
		return fmt.Errorf("qbets: %w: bad CURRENT %q", ErrCorruptState, gen)
	}
	genDir := filepath.Join(path, gen)
	header, err := os.ReadFile(filepath.Join(genDir, manifestFile))
	if err != nil {
		return generationErr(err)
	}
	p, err := beginInstall(header)
	if err != nil {
		return err
	}
	// The last shard must exist before the declared count sizes anything:
	// a damaged manifest must not be able to demand a huge allocation.
	if _, err := os.Stat(filepath.Join(genDir, shardFileName(p.header.Shards-1))); err != nil {
		return generationErr(err)
	}
	chunks := make([]map[string]shardStream, p.header.Shards)
	errs := make([]error, len(chunks))
	parallel.ForEachIndex(len(chunks), func(i int) {
		doc, err := os.ReadFile(filepath.Join(genDir, shardFileName(i)))
		if err != nil {
			errs[i] = generationErr(err)
			return
		}
		chunks[i], errs[i] = decodeChunk(i, doc)
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, m := range chunks {
		if err := p.apply(s, i, m); err != nil {
			return err
		}
	}
	return p.commit(s)
}

// generationErr classifies a failure to read a file of the generation
// CURRENT names. The generation was complete when CURRENT was published,
// so a missing file is damage, not absence.
func generationErr(err error) error {
	if os.IsNotExist(err) {
		return fmt.Errorf("qbets: %w: %v", ErrCorruptState, err)
	}
	return err
}

// LoadServiceFile restores a Service from a state directory written by
// SaveFile. Every stream is adopted cold; splitByProcs and opts apply to
// streams created after the restore.
func LoadServiceFile(path string, splitByProcs bool, opts ...Option) (*Service, error) {
	s := NewService(splitByProcs, opts...)
	if err := s.LoadFile(path); err != nil {
		return nil, err
	}
	return s, nil
}
