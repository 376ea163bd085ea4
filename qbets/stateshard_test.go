package qbets

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildShardTestService creates a service with several streams of
// deterministic traffic and returns it plus the per-queue observation
// schedule so tests can extend it identically on a restored copy.
func buildShardTestService(t *testing.T, queues int) *Service {
	t.Helper()
	svc := NewService(false, WithSeed(13))
	for q := 0; q < queues; q++ {
		for i := 0; i < 120; i++ {
			if err := svc.Observe(fmt.Sprintf("shq%03d", q), 1, shardWait(q, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return svc
}

func shardWait(q, i int) float64 { return math.Exp(math.Sin(float64(q*500+i))) * 45 }

// TestSaveLoadShardsRoundTrip saves a mixed hot/cold registry as a
// generation of several shard files and checks the restore is exact,
// all-cold, and that writes afterwards rehydrate to the oracle's state.
func TestSaveLoadShardsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	const queues = 9
	svc := buildShardTestService(t, queues)
	// Evict a subset so the save sees both hydrated and cold streams.
	svc.EvictToCap(queues / 2)

	svc.SetSnapshotChunkStreams(4) // 9 streams -> 3 shard files
	if err := svc.SaveFile(dir); err != nil {
		t.Fatal(err)
	}
	shards, err := filepath.Glob(filepath.Join(generationDir(t, dir), "shard-*.json"))
	if err != nil || len(shards) != 3 {
		t.Fatalf("saved shard files %v (%v), want 3", shards, err)
	}

	restored, err := LoadServiceFile(dir, false, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumStreams() != queues {
		t.Fatalf("restored %d streams, want %d", restored.NumStreams(), queues)
	}
	if restored.LiveStreams() != 0 {
		t.Fatalf("restored %d hydrated streams, want 0 (cold adoption)", restored.LiveStreams())
	}
	// Read plane must be exact without rehydrating anything.
	wantQ := svc.Queues()
	gotQ := restored.Queues()
	if len(gotQ) != len(wantQ) {
		t.Fatalf("restored Queues() = %d keys, want %d", len(gotQ), len(wantQ))
	}
	for i := range wantQ {
		if gotQ[i] != wantQ[i] {
			t.Fatalf("Queues()[%d] = %q, want %q", i, gotQ[i], wantQ[i])
		}
	}
	for q := 0; q < queues; q++ {
		name := fmt.Sprintf("shq%03d", q)
		gb, gok := restored.Forecast(name, 1)
		wb, wok := svc.Forecast(name, 1)
		if gok != wok || gb != wb {
			t.Fatalf("queue %s: restored bound (%g,%v), want (%g,%v)", name, gb, gok, wb, wok)
		}
		if got, want := restored.Observations(name, 1), svc.Observations(name, 1); got != want {
			t.Fatalf("queue %s: restored %d observations, want %d", name, got, want)
		}
	}
	if restored.LiveStreams() != 0 {
		t.Fatal("read traffic rehydrated restored streams")
	}

	// Writes rehydrate; forecasts then track a never-saved oracle exactly.
	for q := 0; q < queues; q++ {
		name := fmt.Sprintf("shq%03d", q)
		for i := 120; i < 160; i++ {
			if err := restored.Observe(name, 1, shardWait(q, i)); err != nil {
				t.Fatal(err)
			}
			if err := svc.Observe(name, 1, shardWait(q, i)); err != nil {
				t.Fatal(err)
			}
		}
		gb, gok := restored.Forecast(name, 1)
		wb, wok := svc.Forecast(name, 1)
		if gok != wok || gb != wb {
			t.Fatalf("queue %s after writes: restored bound (%g,%v), oracle (%g,%v)", name, gb, gok, wb, wok)
		}
	}
}

// TestSaveShardsRotates checks a second save supersedes the first: only
// one generation directory survives and CURRENT points at it.
func TestSaveShardsRotates(t *testing.T) {
	dir := t.TempDir()
	svc := buildShardTestService(t, 3)
	svc.SetSnapshotChunkStreams(2)
	if err := svc.SaveFile(dir); err != nil {
		t.Fatal(err)
	}
	svc.Observe("shq000", 1, 1)
	if err := svc.SaveFile(dir); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	gens := 0
	for _, e := range ents {
		if e.IsDir() {
			gens++
		}
	}
	if gens != 1 {
		t.Fatalf("%d generation directories after two saves, want 1", gens)
	}
	restored, err := LoadServiceFile(dir, false, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Observations("shq000", 1), svc.Observations("shq000", 1); got != want {
		t.Fatalf("restored latest generation has %d observations, want %d", got, want)
	}
}

// TestLoadShardsCorruption checks every corruption mode maps to
// ErrCorruptState (so the server's quarantine path applies) and a missing
// directory surfaces as os.IsNotExist (so "starting fresh" applies).
func TestLoadShardsCorruption(t *testing.T) {
	if _, err := LoadServiceFile(filepath.Join(t.TempDir(), "absent"), false); !os.IsNotExist(err) {
		t.Fatalf("missing dir: got %v, want os.IsNotExist", err)
	}

	corrupt := func(name string, mutate func(dir string)) {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			svc := buildShardTestService(t, 4)
			svc.SetSnapshotChunkStreams(2) // 4 streams -> 2 shard files
			if err := svc.SaveFile(dir); err != nil {
				t.Fatal(err)
			}
			mutate(dir)
			if _, err := LoadServiceFile(dir, false); !isCorrupt(err) {
				t.Fatalf("got %v, want ErrCorruptState", err)
			}
		})
	}
	genDir := func(dir string) string { return generationDir(t, dir) }
	corrupt("bad-current", func(dir string) {
		os.WriteFile(filepath.Join(dir, currentFile), []byte("../escape\n"), 0o644)
	})
	corrupt("dangling-current", func(dir string) {
		os.WriteFile(filepath.Join(dir, currentFile), []byte("gen-0\n"), 0o644)
	})
	corrupt("mangled-manifest", func(dir string) {
		os.WriteFile(filepath.Join(genDir(dir), "manifest.json"), []byte("{oops"), 0o644)
	})
	corrupt("missing-shard", func(dir string) {
		os.Remove(filepath.Join(genDir(dir), shardFileName(0)))
	})
	corrupt("mangled-shard", func(dir string) {
		os.WriteFile(filepath.Join(genDir(dir), shardFileName(1)), []byte("not json"), 0o644)
	})
	corrupt("zero-shard-manifest", func(dir string) {
		os.WriteFile(filepath.Join(genDir(dir), "manifest.json"), []byte("{\"shards\":0}"), 0o644)
	})
}

func isCorrupt(err error) bool { return errors.Is(err, ErrCorruptState) }

// generationDir resolves the generation directory CURRENT names.
func generationDir(t *testing.T, dir string) string {
	t.Helper()
	cur, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, strings.TrimSpace(string(cur)))
}

// hashShardedStateService rebuilds, from the same seed and inputs, the
// registry that wrote testdata/hash-sharded-state: two queues by
// processor category, 150 waits per stream, all but three streams evicted
// at save.
func hashShardedStateService() *Service {
	svc := NewService(true, WithSeed(31))
	for i := 0; i < 150; i++ {
		for q, procs := range []int{1, 8, 64, 2, 16} {
			queue := "shardedA"
			if q >= 3 {
				queue = "shardedB"
			}
			svc.Observe(queue, procs, math.Exp(math.Sin(float64(q*1000+i)))*60)
		}
	}
	return svc
}

// TestHashShardedStateDirLoads loads a generation directory checked in
// from the earlier sharded saver — two shard files partitioned by key
// hash, not by key order — and checks every forecast against a rebuild of
// the registry that wrote it, before and after writes rehydrate the
// streams.
func TestHashShardedStateDirLoads(t *testing.T) {
	restored, err := LoadServiceFile(filepath.Join("testdata", "hash-sharded-state"), true, WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	oracle := hashShardedStateService()
	if restored.NumStreams() != oracle.NumStreams() || restored.NumStreams() != 5 {
		t.Fatalf("restored %d streams, oracle %d, want 5", restored.NumStreams(), oracle.NumStreams())
	}
	check := func(when string) {
		t.Helper()
		for _, q := range []string{"shardedA", "shardedB"} {
			for _, procs := range []int{1, 2, 8, 16, 64} {
				gb, gok := restored.Forecast(q, procs)
				wb, wok := oracle.Forecast(q, procs)
				if gb != wb || gok != wok {
					t.Fatalf("%s: %s/%d restored bound (%g,%v), oracle (%g,%v)", when, q, procs, gb, gok, wb, wok)
				}
				if got, want := restored.Observations(q, procs), oracle.Observations(q, procs); got != want {
					t.Fatalf("%s: %s/%d restored %d observations, oracle %d", when, q, procs, got, want)
				}
			}
		}
	}
	check("restored")
	for i := 0; i < 20; i++ {
		for _, procs := range []int{1, 8, 64} {
			for _, svc := range []*Service{restored, oracle} {
				if err := svc.Observe("shardedA", procs, float64(30+i)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	check("after writes")
}

// TestLegacyStateFileRefused: a single state file from before the
// directory format is neither read nor touched. The error is not
// ErrCorruptState (which would quarantine it) and not os.IsNotExist
// (which would start fresh and later save over it).
func TestLegacyStateFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	legacy := []byte(`{"by_procs":true,"next_seed":2,"streams":{"q":"AAAA"}}`)
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadServiceFile(path, true)
	if err == nil || isCorrupt(err) || os.IsNotExist(err) {
		t.Fatalf("legacy state file: got %v, want an error that is neither corruption nor absence", err)
	}
	svc := buildShardTestService(t, 2)
	if err := svc.SaveFile(path); err == nil {
		t.Fatal("save over a legacy state file succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != string(legacy) {
		t.Fatalf("legacy state file changed: %q, %v", got, err)
	}
}

// TestShardFilesEqualWireChunks: one capture, two renderings — shard file
// i of a save is byte for byte chunk i of the catch-up stream, and the
// manifest is the snapBegin header.
func TestShardFilesEqualWireChunks(t *testing.T) {
	dir := t.TempDir()
	svc := buildShardTestService(t, 7)
	svc.EvictToCap(3)
	svc.SetSnapshotChunkStreams(3) // 7 streams -> 3 chunks, the last short
	if err := svc.SaveFile(dir); err != nil {
		t.Fatal(err)
	}
	ss, err := svc.OpenReplicaSnapshotStream()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	gen := generationDir(t, dir)
	if man, err := os.ReadFile(filepath.Join(gen, manifestFile)); err != nil || string(man) != string(ss.Header()) {
		t.Fatalf("manifest %q (%v), wire header %q", man, err, ss.Header())
	}
	if ss.Chunks() != 3 {
		t.Fatalf("chunks = %d, want 3", ss.Chunks())
	}
	for i := 0; i < ss.Chunks(); i++ {
		wire, err := ss.AppendChunk(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		disk, err := os.ReadFile(filepath.Join(gen, shardFileName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if string(disk) != string(wire) {
			t.Fatalf("shard file %d differs from wire chunk %d:\n disk %.120q\n wire %.120q", i, i, disk, wire)
		}
	}
	if _, err := os.Stat(filepath.Join(gen, shardFileName(3))); !os.IsNotExist(err) {
		t.Fatalf("extra shard file beyond the chunk count: %v", err)
	}
}

// TestEmptyRegistryRoundTrip: a registry with no streams is one empty
// chunk, on disk and on the wire, and installs as an empty registry.
func TestEmptyRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	empty := NewService(true, WithSeed(3))
	if err := empty.SaveFile(dir); err != nil {
		t.Fatal(err)
	}
	restored := buildShardTestService(t, 2)
	if err := restored.LoadFile(dir); err != nil {
		t.Fatal(err)
	}
	if restored.NumStreams() != 0 {
		t.Fatalf("restored %d streams from an empty registry", restored.NumStreams())
	}

	ss, err := empty.OpenReplicaSnapshotStream()
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if ss.Chunks() != 1 {
		t.Fatalf("empty registry has %d chunks, want 1", ss.Chunks())
	}
	fol := buildShardTestService(t, 2)
	fol.SetFollower(true)
	feedChunkedSnapshot(t, ss, fol)
	if fol.NumStreams() != 0 {
		t.Fatalf("follower holds %d streams after an empty install", fol.NumStreams())
	}
}

// TestConcurrentSavesKeepStateLoadable: saves that overlap — a periodic
// save still running when the shutdown save starts — must leave CURRENT
// naming a complete generation. Each save deletes the generations it did
// not write, so unserialized saves could delete the one the other just
// published.
func TestConcurrentSavesKeepStateLoadable(t *testing.T) {
	dir := t.TempDir()
	svc := buildShardTestService(t, 6)
	svc.SetSnapshotChunkStreams(2)
	var wg sync.WaitGroup
	errs := make(chan error, 2*20)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				errs <- svc.SaveFile(dir)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("overlapping save failed: %v", err)
		}
	}
	restored, err := LoadServiceFile(dir, false)
	if err != nil {
		t.Fatalf("state after overlapping saves: %v", err)
	}
	if restored.NumStreams() != 6 {
		t.Fatalf("restored %d streams, want 6", restored.NumStreams())
	}
}
