package qbets

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// ErrCorruptState marks state blobs that fail to decode. Callers use it to
// tell a damaged snapshot (quarantine it and start fresh) apart from I/O
// failures such as permission errors, where the file may be perfectly
// intact and moving it aside would discard good state.
var ErrCorruptState = errors.New("state file is corrupt")

// State persistence: a deployed forecaster accumulates months of history;
// these helpers let it survive process restarts without retraining.

// MarshalBinary encodes the forecaster's full state (configuration,
// calibration, and history).
func (f *Forecaster) MarshalBinary() ([]byte, error) {
	return f.b.MarshalBinary()
}

// UnmarshalBinary restores state produced by MarshalBinary, replacing the
// forecaster's configuration and history entirely.
func (f *Forecaster) UnmarshalBinary(data []byte) error {
	return f.b.UnmarshalBinary(data)
}

// decodeForecaster builds a forecaster straight from a state blob. Every
// restore path uses it: building a default forecaster first would only
// allocate a predictor for UnmarshalBinary to throw away.
func decodeForecaster(blob []byte) (*Forecaster, error) {
	f := &Forecaster{b: new(core.BMBP)}
	if err := f.b.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return f, nil
}

// Save writes the forecaster's state to w.
func (f *Forecaster) Save(w io.Writer) error {
	blob, err := f.MarshalBinary()
	if err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}

// SaveFile writes the forecaster's state to a file.
func (f *Forecaster) SaveFile(path string) error {
	blob, err := f.MarshalBinary()
	if err != nil {
		return err
	}
	return writeFileAtomic(path, blob)
}

// writeFileAtomic writes via a temp file + fsync + rename + directory
// fsync. The rename keeps a crash mid-save from leaving a truncated state
// file; the two fsyncs make the new contents and the directory entry
// durable before the caller acts on the save — without them a power cut
// after rename can surface the old file, an empty one, or nothing, even
// though the save reported success (and, worse, triggered WAL compaction).
func writeFileAtomic(path string, blob []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(blob)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making renames and unlinks within it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load restores a forecaster from a state blob written by Save.
func Load(r io.Reader) (*Forecaster, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return decodeForecaster(blob)
}

// LoadFile restores a forecaster from a state file written by SaveFile.
func LoadFile(path string) (*Forecaster, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeForecaster(blob)
}

// Service persistence: the whole per-stream forecaster family serializes
// as one blob, so a deployment (e.g. qbets-serve) restarts with its
// accumulated history intact.

// serviceBlob is the JSON-framed container; each stream's forecaster state
// rides inside as the binary blob the core format defines. StreamSeqs
// records, per stream, the WAL sequence number of the newest observation
// the snapshot includes — the anchor that lets startup recovery merge the
// log tail exactly (older snapshots without the field replay from zero,
// which only matters if a WAL predating the snapshot format is kept).
type serviceBlob struct {
	ByProcs    bool              `json:"by_procs"`
	NextSeed   int64             `json:"next_seed"`
	Streams    map[string][]byte `json:"streams"`
	StreamSeqs map[string]uint64 `json:"stream_seqs,omitempty"`
}

// MarshalBinary encodes every stream's forecaster state. It is safe to
// call while serving: each stream is read-locked only while its own
// forecaster serializes, and the per-stream WAL sequence number is read
// under that same lock, so each stream's (state, seq) pair is consistent
// even mid-traffic.
func (s *Service) MarshalBinary() ([]byte, error) {
	streams := s.snapshotStreams()
	blob := serviceBlob{
		ByProcs:    s.byProcs.Load(),
		NextSeed:   s.nextSeed.Load(),
		Streams:    make(map[string][]byte, len(streams)),
		StreamSeqs: make(map[string]uint64, len(streams)),
	}
	for k, st := range streams {
		st.mu.RLock()
		var b []byte
		var err error
		if st.fc != nil {
			b, err = st.fc.MarshalBinary()
		} else {
			// Evicted stream: the cold blob IS the serialized forecaster,
			// written at eviction time and immutable since.
			b = st.cold
		}
		seq := st.lastSeq
		st.mu.RUnlock()
		if err != nil {
			return nil, fmt.Errorf("qbets: stream %q: %w", k, err)
		}
		blob.Streams[k] = b
		blob.StreamSeqs[k] = seq
	}
	return json.Marshal(blob)
}

// UnmarshalBinary restores a Service serialized by MarshalBinary,
// replacing the current stream set wholesale. The receiver's options are
// retained for streams created after the restore; restored streams carry
// their own serialized configuration. Self-monitoring hit-rate windows
// restart empty — the correctness metric describes the running deployment,
// not the archived history.
//
// Restore is safe while serving: every restored stream has its forecast
// snapshot computed and published (adoptStream) before replaceStreams
// republishes the lock-free read index, so once UnmarshalBinary returns,
// no reader can resolve a pre-restore stream or see a stale bound —
// readers mid-flight on old stream pointers finish against the old,
// internally consistent snapshots.
func (s *Service) UnmarshalBinary(data []byte) error {
	var blob serviceBlob
	if err := json.Unmarshal(data, &blob); err != nil {
		return fmt.Errorf("qbets: %w: %v", ErrCorruptState, err)
	}
	restored := make(map[string]*stream, len(blob.Streams))
	for k, fb := range blob.Streams {
		fc, err := decodeForecaster(fb)
		if err != nil {
			return fmt.Errorf("qbets: %w: stream %q: %v", ErrCorruptState, k, err)
		}
		restored[k] = s.adoptStream(k, fc, blob.StreamSeqs[k])
	}
	s.byProcs.Store(blob.ByProcs)
	s.nextSeed.Store(blob.NextSeed)
	s.replaceStreams(restored)
	return nil
}

// SaveFile writes the service's state to a file. When a write-ahead log is
// attached, a successful save also compacts it: the log is rotated before
// the snapshot is taken, and once the snapshot is durably on disk the
// segments it fully covers are deleted. The ordering makes the window
// crash-safe in both directions — a crash before the snapshot lands leaves
// every segment in place (recovery replays a little extra, skipped via the
// per-stream sequence numbers), and segments are only deleted after the
// snapshot that supersedes them is readable. Compaction failures are
// counted but do not fail the save: the snapshot is good, the log is
// merely longer than necessary.
func (s *Service) SaveFile(path string) error {
	cut, rotated := s.preSaveRotate()
	blob, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	if err := writeFileAtomic(path, blob); err != nil {
		return err
	}
	s.postSaveCompact(cut, rotated)
	return nil
}

// preSaveRotate rotates the attached WAL (if any) ahead of a snapshot so
// the segments the snapshot covers can be compacted afterwards. Rotation
// failure is counted, not fatal: the save proceeds, the log just is not
// compacted this round.
func (s *Service) preSaveRotate() (cut uint64, rotated bool) {
	if s.wal == nil {
		return 0, false
	}
	var err error
	if cut, err = s.wal.Rotate(); err != nil {
		s.walCompactErrors.Inc()
		return 0, false
	}
	return cut, true
}

// postSaveCompact deletes the WAL segments a durable snapshot supersedes.
// Best-effort by design: the snapshot is already good.
func (s *Service) postSaveCompact(cut uint64, rotated bool) {
	if !rotated {
		return
	}
	if err := s.wal.RemoveSegmentsBelow(cut); err != nil {
		s.walCompactErrors.Inc()
	}
}

// QuarantineStateFile moves an unreadable state file aside to
// <path>.corrupt-<unixtime> so the process can start fresh without
// destroying the evidence (or the chance of manual recovery). It returns
// the quarantine path.
func QuarantineStateFile(path string) (string, error) {
	quarantine := fmt.Sprintf("%s.corrupt-%d", path, time.Now().Unix())
	if err := os.Rename(path, quarantine); err != nil {
		return "", err
	}
	return quarantine, nil
}

// LoadServiceFile restores a Service from a state file. splitByProcs and
// opts apply to streams created after the restore.
func LoadServiceFile(path string, splitByProcs bool, opts ...Option) (*Service, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := NewService(splitByProcs, opts...)
	if err := s.UnmarshalBinary(blob); err != nil {
		return nil, err
	}
	return s, nil
}

// Interval is a two-sided confidence interval on a quantile of queue
// delay: with the stated confidence, the quantile lies in [Low, High].
type Interval struct {
	Quantile   float64
	Confidence float64
	Low, High  float64
	OK         bool
}

// ForecastInterval returns a two-sided confidence interval for the q
// quantile, built from two one-sided bounds at confidence
// (1 + confidence)/2 each (Bonferroni: the pair holds jointly with at
// least the requested confidence). The paper notes the method extends to
// two-sided intervals this way (Section 3).
func (f *Forecaster) ForecastInterval(q, confidence float64) Interval {
	side := (1 + confidence) / 2
	lo := f.ForecastQuantile(q, side, true)
	hi := f.ForecastQuantile(q, side, false)
	return Interval{
		Quantile:   q,
		Confidence: confidence,
		Low:        lo.Seconds,
		High:       hi.Seconds,
		OK:         lo.OK && hi.OK,
	}
}
