package whatif

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/scheduler"
)

func testPlanner(jobs int) *Planner {
	return NewPlanner(Config{
		Workload: scheduler.WorkloadConfig{Jobs: jobs, Seed: 42},
	})
}

func TestEvaluateBaseline(t *testing.T) {
	p := testPlanner(2000)
	outs := p.Evaluate(1, []Scenario{{Name: "base"}})
	o := outs[0]
	if o.Error != "" {
		t.Fatalf("baseline errored: %s", o.Error)
	}
	if !o.BoundOK {
		t.Fatal("baseline produced no bound")
	}
	if o.Jobs != 2000 {
		t.Fatalf("baseline evaluated %d jobs, want 2000", o.Jobs)
	}
	if o.BoundSeconds < o.MeanWaitSeconds {
		t.Errorf("0.95-quantile bound %.1f below mean wait %.1f", o.BoundSeconds, o.MeanWaitSeconds)
	}
	if o.BoundSeconds > o.MaxWaitSeconds {
		t.Errorf("bound %.1f above max wait %.1f", o.BoundSeconds, o.MaxWaitSeconds)
	}
	if o.Scenario.Name != "base" {
		t.Errorf("scenario name lost: %+v", o.Scenario)
	}
}

func TestEvaluateDeterministicAcrossWorkers(t *testing.T) {
	grid := make([]Scenario, 16)
	for i := range grid {
		grid[i].RateMultiplier = 0.5 + float64(i)*0.1
	}
	a := testPlanner(1000).Evaluate(1, grid)
	b := testPlanner(1000).Evaluate(1, grid)
	for i := range a {
		a[i].Cached, b[i].Cached = false, false
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("parallel grid evaluation is not deterministic")
	}
}

func TestLoadAndCapacityDirections(t *testing.T) {
	p := testPlanner(2000)
	outs := p.Evaluate(1, []Scenario{
		{Name: "half-load", RateMultiplier: 0.5},
		{Name: "base"},
		{Name: "double-load", RateMultiplier: 2},
		{Name: "half-machine", Procs: 64},
	})
	for _, o := range outs {
		if o.Error != "" || !o.BoundOK {
			t.Fatalf("scenario %q failed: %+v", o.Scenario.Name, o)
		}
	}
	half, base, double, shrunk := outs[0], outs[1], outs[2], outs[3]
	if half.BoundSeconds > base.BoundSeconds {
		t.Errorf("halving load raised the bound: %.1f > %.1f", half.BoundSeconds, base.BoundSeconds)
	}
	if double.BoundSeconds < base.BoundSeconds {
		t.Errorf("doubling load lowered the bound: %.1f < %.1f", double.BoundSeconds, base.BoundSeconds)
	}
	if shrunk.BoundSeconds < base.BoundSeconds {
		t.Errorf("halving the machine lowered the bound: %.1f < %.1f", shrunk.BoundSeconds, base.BoundSeconds)
	}
}

func TestPolicyOverride(t *testing.T) {
	p := testPlanner(2000)
	outs := p.Evaluate(1, []Scenario{
		{Name: "fcfs", Policy: "fcfs"},
		{Name: "easy", Policy: "easy"},
		{Name: "bogus", Policy: "gang"},
	})
	if outs[0].Backfilled != 0 {
		t.Errorf("fcfs backfilled %d jobs", outs[0].Backfilled)
	}
	if outs[1].Backfilled == 0 {
		t.Error("easy backfilled nothing")
	}
	if outs[0].BoundSeconds < outs[1].BoundSeconds {
		t.Errorf("disabling backfill lowered the bound: %.1f < %.1f", outs[0].BoundSeconds, outs[1].BoundSeconds)
	}
	if outs[2].Error == "" {
		t.Error("unknown policy did not error")
	}
}

func TestScenarioCacheAndInvalidation(t *testing.T) {
	p := testPlanner(500)
	grid := []Scenario{{RateMultiplier: 1}, {RateMultiplier: 2}}

	first := p.Evaluate(7, grid)
	if first[0].Cached || first[1].Cached {
		t.Fatal("cold cache reported hits")
	}
	if got := p.CacheMisses(); got != 2 {
		t.Fatalf("misses = %d, want 2", got)
	}

	second := p.Evaluate(7, grid)
	for i := range second {
		if !second[i].Cached {
			t.Fatalf("warm scenario %d not served from cache", i)
		}
		second[i].Cached = false
		if !reflect.DeepEqual(second[i], first[i]) {
			t.Fatalf("cached outcome diverged: %+v vs %+v", second[i], first[i])
		}
	}
	if got := p.CacheHits(); got != 2 {
		t.Fatalf("hits = %d, want 2", got)
	}

	// A rate_multiplier of 0 and 1 are the same scenario.
	if o := p.Evaluate(7, []Scenario{{}})[0]; !o.Cached {
		t.Error("default-rate scenario missed the normalized cache key")
	}

	// Refit: new fingerprint drops everything.
	third := p.Evaluate(8, grid)
	if third[0].Cached || third[1].Cached {
		t.Fatal("fingerprint change did not invalidate the cache")
	}
	if p.CacheSize() != 2 {
		t.Fatalf("cache size = %d, want 2", p.CacheSize())
	}
}

// TestCacheHitEchoesRequestedScenario: scenarios that share a cache key
// but differ as literals — an omitted rate multiplier and an explicit 1 —
// each come back exactly as sent, whichever of them filled the entry.
func TestCacheHitEchoesRequestedScenario(t *testing.T) {
	p := testPlanner(200)
	base := p.Evaluate(3, []Scenario{{}})[0]
	if base.Scenario != (Scenario{}) {
		t.Fatalf("miss echoed %+v, want the empty scenario", base.Scenario)
	}
	sent := Scenario{Name: "one", RateMultiplier: 1}
	o := p.Evaluate(3, []Scenario{sent})[0]
	if !o.Cached {
		t.Fatal("same-key scenario missed the cache")
	}
	if o.Scenario != sent {
		t.Fatalf("cache hit echoed %+v, want %+v as sent", o.Scenario, sent)
	}
	if o.BoundSeconds != base.BoundSeconds || o.Jobs != base.Jobs {
		t.Fatalf("cache hit changed the outcome: %+v vs %+v", o, base)
	}
	if o := p.Evaluate(3, []Scenario{{}})[0]; o.Scenario != (Scenario{}) {
		t.Fatalf("second empty scenario echoed %+v", o.Scenario)
	}
}

func TestSizeToSLOMeetsTargetAndIsMonotone(t *testing.T) {
	p := testPlanner(2000)
	base := p.Evaluate(1, []Scenario{{}})[0]
	if !base.BoundOK {
		t.Fatal("no baseline bound")
	}

	targets := []float64{base.BoundSeconds * 0.5, base.BoundSeconds, base.BoundSeconds * 2}
	var prev float64
	for i, target := range targets {
		s := p.SizeToSLO(1, Scenario{}, target)
		if !s.OK {
			t.Fatalf("target %.1fs: no feasible rate", target)
		}
		if s.BoundSeconds > target {
			t.Errorf("target %.1fs: returned rate %.3f has bound %.1fs over target",
				target, s.MaxRateMultiplier, s.BoundSeconds)
		}
		// Verify the answer independently: re-simulate at the returned rate.
		check := p.Evaluate(1, []Scenario{{RateMultiplier: s.MaxRateMultiplier}})[0]
		if !check.BoundOK || check.BoundSeconds > target {
			t.Errorf("target %.1fs: re-simulation at %.3f gives %.1fs", target, s.MaxRateMultiplier, check.BoundSeconds)
		}
		if i > 0 && s.MaxRateMultiplier < prev {
			t.Errorf("sizing not monotone: target %.1fs allows %.3f < %.3f", target, s.MaxRateMultiplier, prev)
		}
		prev = s.MaxRateMultiplier
	}

	// A target no simulated bound can meet (bounds are non-negative) is
	// infeasible even at the search floor.
	if s := p.SizeToSLO(1, Scenario{}, -1); s.OK {
		t.Errorf("impossible target reported OK: %+v", s)
	}
}

// BenchmarkWhatifGrid is the acceptance benchmark: a 64-scenario grid over
// rate multipliers and machine sizes, evaluated cold (cache cleared via a
// fresh fingerprint each iteration) on a 2000-job base trace.
func BenchmarkWhatifGrid(b *testing.B) {
	p := testPlanner(2000)
	grid := make([]Scenario, 0, 64)
	for _, procs := range []int{0, 96, 64, 32} {
		for i := 0; i < 16; i++ {
			grid = append(grid, Scenario{
				Name:           fmt.Sprintf("p%d-r%d", procs, i),
				RateMultiplier: 0.25 + float64(i)*0.25,
				Procs:          procs,
			})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := p.Evaluate(uint64(i+1), grid)
		for _, o := range outs {
			if o.Error != "" {
				b.Fatal(o.Error)
			}
		}
	}
}
