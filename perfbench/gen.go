package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/qbets"
)

// stream is one (queue, processor bucket) registry entry the benchmark
// drives. Its waits come from one of the paper's Table-1 queue models, so
// each stream's sequence is heavy-tailed and autocorrelated like the logs.
// They are generated on demand, a chunk at a time, each chunk from a seed
// fixed by the stream's seed and the chunk's index: a hot stream under a
// Zipf skew never repeats its values, and the same seed always yields the
// same sequence however far a run reads it.
type stream struct {
	queue string
	procs int
	key   string          // registry key, "queue/bucket"
	model *workload.Model // nil for a stream of constant one-second waits
	seed  int64
	waits []float64 // every wait generated so far
	next  int       // cursor into waits
}

// streamChunk is how many waits one generation of a stream's model adds.
const streamChunk = 256

func (s *stream) take() float64 {
	for s.next >= len(s.waits) {
		s.extend()
	}
	w := s.waits[s.next]
	s.next++
	return w
}

func (s *stream) extend() {
	if s.model == nil {
		s.waits = append(s.waits, 1)
		return
	}
	s.model.Jobs = streamChunk
	s.model.Seed = s.seed + int64(len(s.waits)/streamChunk)*0x9e3779b9
	for _, j := range s.model.Generate().Jobs {
		s.waits = append(s.waits, j.Wait)
	}
}

// bucketProcs are representative processor counts, one per category.
var bucketProcs = [4]int{2, 8, 32, 128}

// probeQueue is the follower-visibility probe stream: constant waits, so
// its history never trims and its observation count is exact.
const probeQueue = "bench.probe"

// inputs is everything a run sends, derived from the seed alone.
type inputs struct {
	streams []*stream
	probe   *stream
	anchor  *stream // whatif calibration anchor (whatif-plan)
}

// generateInputs builds spec.Queues queues × 4 buckets of streams, each
// with its own seeded Table-1 model of a queue chosen per queue.
func generateInputs(spec *workloadSpec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for q := 0; q < spec.Queues; q++ {
		pq := &trace.PaperQueues[rng.Intn(len(trace.PaperQueues))]
		name := fmt.Sprintf("%s.%s-%04d", pq.Machine, strings.ReplaceAll(pq.Queue, "/", "."), q)
		for b := 0; b < 4; b++ {
			s := rng.Int63()
			in.streams = append(in.streams, &stream{
				queue: name,
				procs: bucketProcs[b],
				key:   name + "/" + qbets.CategoryOf(bucketProcs[b]).Label(),
				model: workload.ModelFor(pq, s),
				seed:  s,
			})
		}
	}
	in.probe = &stream{queue: probeQueue, procs: 1, key: probeQueue + "/" + qbets.CategoryOf(1).Label()}
	in.anchor = in.streams[0]
	return in
}

// cursors records how far every stream has been read, so a later pass
// can rewind and send exactly the same waits again.
func (in *inputs) cursors() []int {
	out := make([]int, 0, len(in.streams)+1)
	for _, s := range in.streams {
		out = append(out, s.next)
	}
	return append(out, in.probe.next)
}

func (in *inputs) rewind(cursors []int) {
	for i, s := range in.streams {
		s.next = cursors[i]
	}
	in.probe.next = cursors[len(in.streams)]
}

// prepare writes the preload a leader restores at boot: the default
// -state file holding every stream's first PreloadPerStream waits, plus a
// WAL tail of WALTailRecords further records the leader replays. It is
// untimed set-up, done once per run in-process through the public API.
func prepare(spec *workloadSpec, in *inputs, dir string, seed int64) error {
	srv := qbets.NewServer(true)
	svc := srv.Service()
	recs := make([]qbets.ObserveRecord, 0, 4096)
	flush := func() error {
		if len(recs) == 0 {
			return nil
		}
		_, err := svc.ObserveBatch(recs)
		recs = recs[:0]
		return err
	}
	all := append([]*stream{in.probe}, in.streams...)
	for i := 0; i < spec.PreloadPerStream; i++ {
		for _, s := range all {
			recs = append(recs, qbets.ObserveRecord{Queue: s.queue, Procs: s.procs, WaitSeconds: s.take()})
			if len(recs) == cap(recs) {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := srv.SaveFile(filepath.Join(dir, "state.json")); err != nil {
		return err
	}
	walDir := filepath.Join(dir, "wal")
	if spec.WALTailRecords == 0 {
		return os.MkdirAll(walDir, 0o755)
	}
	w, err := wal.Open(walDir, wal.Options{Mode: wal.SyncOff})
	if err != nil {
		return err
	}
	if _, err := svc.RecoverWAL(w); err != nil {
		w.Close()
		return err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x7a11))
	for i := 0; i < spec.WALTailRecords; i++ {
		s := in.streams[rng.Intn(len(in.streams))]
		recs = append(recs, qbets.ObserveRecord{Queue: s.queue, Procs: s.procs, WaitSeconds: s.take()})
		if len(recs) == 100 {
			if err := flush(); err != nil {
				w.Close()
				return err
			}
		}
	}
	if err := flush(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// copyTree copies a prepared directory (regular files and directories
// only) so every boot starts from byte-identical state.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// observeBody encodes one POST /v1/observe batch.
func observeBody(dst []byte, recs []qbets.ObserveRecord) []byte {
	dst = append(dst, '[')
	for i, r := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"queue":`...)
		dst = strconv.AppendQuote(dst, r.Queue)
		dst = append(dst, `,"procs":`...)
		dst = strconv.AppendInt(dst, int64(r.Procs), 10)
		dst = append(dst, `,"wait_seconds":`...)
		dst = strconv.AppendFloat(dst, r.WaitSeconds, 'g', -1, 64)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// shapesBody encodes a batch POST /v1/forecast body.
func shapesBody(ss []*stream) []byte {
	var b []byte
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"queue":`...)
		b = strconv.AppendQuote(b, s.queue)
		b = append(b, `,"procs":`...)
		b = strconv.AppendInt(b, int64(s.procs), 10)
		b = append(b, '}')
	}
	return append(b, ']')
}
