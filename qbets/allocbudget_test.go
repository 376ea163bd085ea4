package qbets

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Alloc budgets for the steady-state write plane. The benchmarks report
// allocs/op but CI doesn't fail on them; these tests do. The budget is
// deliberately fractional: the hot path itself is alloc-free, but history
// growth inside the forecaster and the 1-in-publishBacklog eager snapshot
// publish amortize to well under half an allocation per observe. A
// regression that puts even one allocation on the per-record path lands at
// ≥1.0 and fails loudly.
const writePathAllocBudget = 0.5

// TestObserveAllocBudget pins the single-record write path (the
// BenchmarkServiceObserve/nowal subject) at amortized-zero allocations.
func TestObserveAllocBudget(t *testing.T) {
	svc := NewService(false, WithSeed(3))
	// Warm: create the stream, settle the forecaster, grow early buffers.
	for i := 0; i < 2000; i++ {
		if err := svc.Observe("normal", 1, float64(i%1000)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(4000, func() {
		if err := svc.Observe("normal", 1, float64(i%1000)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg > writePathAllocBudget {
		t.Fatalf("Observe averaged %.3f allocs/op, budget %.1f", avg, writePathAllocBudget)
	}
}

// TestObserveBatchAllocBudget pins the batched write path (the
// BenchmarkServiceObserveBatch/nowal subjects) per record, across the
// benchmarked batch sizes.
func TestObserveBatchAllocBudget(t *testing.T) {
	for _, size := range []int{1, 10, 100} {
		svc := NewService(false, WithSeed(3))
		recs := make([]ObserveRecord, size)
		for i := range recs {
			recs[i] = ObserveRecord{Queue: "normal", Procs: 1, WaitSeconds: float64(10 + i%1000)}
		}
		for i := 0; i < 2000/size+1; i++ {
			if _, err := svc.ObserveBatch(recs); err != nil {
				t.Fatal(err)
			}
		}
		runs := 4000 / size
		if runs < 200 {
			runs = 200
		}
		avg := testing.AllocsPerRun(runs, func() {
			if _, err := svc.ObserveBatch(recs); err != nil {
				t.Fatal(err)
			}
		})
		if perRec := avg / float64(size); perRec > writePathAllocBudget {
			t.Fatalf("ObserveBatch size %d averaged %.3f allocs/record, budget %.1f", size, perRec, writePathAllocBudget)
		}
	}
}

// restoredStreamHeapBudget is the live heap one restored stream of 64
// waits may cost: its saved core and forecast snapshot (a restore adopts
// streams cold), its monitoring state, and its share of the registry
// index. The wait data itself is 0.5 KiB; the budget leaves room for the
// rest but not for arenas reserved beyond what the stream holds.
const restoredStreamHeapBudget = 3.5 * 1024

// writtenStreamHeapBudget is the live heap the same stream may cost once
// a write has rehydrated it: the decoded forecaster's history and
// order-statistic tree, sized to their contents on decode, plus the
// history slice's first growth (64 to 128 values) that the write's append
// makes.
const writtenStreamHeapBudget = 4.75 * 1024

// TestRestoredStreamHeapBudget restores a registry of streams with 64
// waits each — the shape of a metascheduler's queue × category predictor
// set — and bounds the live heap per stream twice: as restored, and after
// one write per stream, which leaves every stream holding its decoded
// forecaster. The baseline is read with no encoder buffer live, so the
// figures are the service's alone.
func TestRestoredStreamHeapBudget(t *testing.T) {
	if raceEnabled {
		// The race runtime changes how the program allocates (about a
		// third more live heap here), so its figures do not describe a
		// production build.
		t.Skip("heap budget is measured without the race detector")
	}
	const queues = 1000
	procsSet := []int{1, 8, 32, 128}
	src := NewService(true, WithSeed(5))
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < queues; q++ {
		queue := fmt.Sprintf("queue-%04d", q)
		for _, procs := range procsSet {
			for i := 0; i < 64; i++ {
				if err := src.Observe(queue, procs, math.Exp(3+2*rng.NormFloat64())); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	dir := t.TempDir()
	if err := src.SaveFile(dir); err != nil {
		t.Fatal(err)
	}
	src = nil

	var before, restoredMem, writtenMem runtime.MemStats
	// Two collections: the second empties sync.Pool victim caches, whose
	// buffers would otherwise be freed inside the measured window.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	restored := NewService(true)
	if err := restored.LoadFile(dir); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&restoredMem)
	for q := 0; q < queues; q++ {
		queue := fmt.Sprintf("queue-%04d", q)
		for _, procs := range procsSet {
			if err := restored.Observe(queue, procs, math.Exp(3+2*rng.NormFloat64())); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&writtenMem)
	n := restored.NumStreams()
	if n != 4*queues {
		t.Fatalf("restored %d streams, want %d", n, 4*queues)
	}
	if live := restored.LiveStreams(); live != n {
		t.Fatalf("%d of %d streams hydrated after one write each", live, n)
	}
	for _, c := range []struct {
		what   string
		mem    *runtime.MemStats
		budget float64
	}{
		{"restored", &restoredMem, restoredStreamHeapBudget},
		{"restored and written", &writtenMem, writtenStreamHeapBudget},
	} {
		perStream := (float64(c.mem.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
		t.Logf("live heap per %s stream: %.0f B", c.what, perStream)
		if perStream > c.budget {
			t.Fatalf("%s stream costs %.0f B of live heap, budget %.0f B", c.what, perStream, c.budget)
		}
	}
	runtime.KeepAlive(restored)
}
