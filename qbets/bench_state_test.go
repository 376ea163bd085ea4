package qbets

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkStateSaveLoad saves and restores a registry of 20,000 streams
// with 64 waits each, the shape of the serve-mixed perfbench workload's
// preloaded state. Each iteration saves to a fresh path and loads into a
// fresh service. The custom metrics are seconds per save and per load,
// the state's size on disk, and save and load throughput over that size.
// A load adopts streams cold, so the forecaster decode it skips is paid
// instead by each stream's first write.
//
//	go test -run '^$' -bench StateSaveLoad -benchtime 3x ./qbets/
func BenchmarkStateSaveLoad(b *testing.B) {
	const streams, waits = 20000, 64
	svc := NewService(false, WithSeed(7))
	rng := rand.New(rand.NewSource(7))
	recs := make([]ObserveRecord, 0, waits)
	for s := 0; s < streams; s++ {
		recs = recs[:0]
		q := fmt.Sprintf("queue-%05d", s)
		for i := 0; i < waits; i++ {
			recs = append(recs, ObserveRecord{Queue: q, Procs: 1, WaitSeconds: math.Exp(3 + 2*rng.NormFloat64())})
		}
		if _, err := svc.ObserveBatch(recs); err != nil {
			b.Fatal(err)
		}
	}
	dir := b.TempDir()
	var saveS, loadS float64
	var size int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		path := filepath.Join(dir, fmt.Sprintf("state-%d", n))
		start := time.Now()
		if err := svc.SaveFile(path); err != nil {
			b.Fatal(err)
		}
		saveS += time.Since(start).Seconds()
		b.StopTimer()
		size = treeSize(b, path)
		b.StartTimer()
		start = time.Now()
		restored, err := LoadServiceFile(path, false)
		if err != nil {
			b.Fatal(err)
		}
		loadS += time.Since(start).Seconds()
		if restored.NumStreams() != streams {
			b.Fatalf("restored %d streams, want %d", restored.NumStreams(), streams)
		}
	}
	b.StopTimer()
	mb := float64(size) / 1e6
	b.ReportMetric(saveS/float64(b.N), "save-s")
	b.ReportMetric(loadS/float64(b.N), "load-s")
	b.ReportMetric(mb, "state-MB")
	b.ReportMetric(mb*float64(b.N)/saveS, "save-MB/s")
	b.ReportMetric(mb*float64(b.N)/loadS, "load-MB/s")
}

// treeSize sums the sizes of the regular files at or under path.
func treeSize(b *testing.B, path string) int64 {
	var total int64
	err := filepath.Walk(path, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			total += fi.Size()
		}
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return total
}
