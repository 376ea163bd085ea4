// Package whatif is the capacity-planning plane: it answers "what would
// the C-confidence bound on queuing delay be IF the arrival rate rose 20%,
// the machine shrank to 64 processors, or backfilling were turned off" by
// replaying a calibrated scheduler simulation per scenario and reading the
// bound off the simulated wait distribution with the same order-statistic
// machinery the live predictor uses (internal/core).
//
// The plane is built for query-time use — dozens of scenarios inside one
// HTTP request — which shapes the whole design:
//
//   - every scenario replays ONE common-random-numbers base trace
//     (scheduler.BaseTrace) under a perturbation, so per-scenario workload
//     generation costs no RNG work and cross-scenario deltas are
//     low-variance;
//   - replays run on pooled scheduler.Kernels, one per worker, fanned out
//     over internal/parallel — steady-state scenario evaluation allocates
//     only the outcome records;
//   - outcomes are memoized in a fingerprint-keyed cache: the fingerprint
//     identifies the model snapshot the planner is calibrated against, so
//     a refit (new fingerprint) invalidates every cached scenario at once.
package whatif

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/scheduler"
)

// Scenario is one hypothetical to evaluate against the base workload. The
// zero value replays the base system unchanged.
type Scenario struct {
	// Name labels the scenario in responses (optional, not part of the
	// cache identity).
	Name string `json:"name,omitempty"`
	// RateMultiplier scales the arrival rate; 1.2 means 20% more load
	// (0 = 1, unchanged).
	RateMultiplier float64 `json:"rate_multiplier,omitempty"`
	// Procs resizes the machine (0 = base size). Job requests and queue
	// ceilings are capped to fit, mirroring how operators shrink a
	// machine's advertised limits with it.
	Procs int `json:"procs,omitempty"`
	// Policy overrides the scheduling discipline: "fcfs", "easy",
	// "conservative" ("" = base policy).
	Policy string `json:"policy,omitempty"`
}

// key is the cache identity of a scenario: its semantic parameters with
// defaults resolved, without the display name.
func (sc Scenario) key() Scenario {
	sc.Name = ""
	if sc.RateMultiplier == 0 {
		sc.RateMultiplier = 1
	}
	return sc
}

// Outcome is the simulated result of one scenario.
type Outcome struct {
	Scenario Scenario `json:"scenario"`
	// BoundSeconds is the level-C upper confidence bound on the target
	// quantile of simulated waits (valid when BoundOK).
	BoundSeconds float64 `json:"bound_seconds"`
	BoundOK      bool    `json:"bound_ok"`
	// Jobs is how many simulated waits fed the bound (after queue filter).
	Jobs int `json:"jobs"`
	// MeanWaitSeconds and MaxWaitSeconds summarize the same distribution.
	MeanWaitSeconds float64 `json:"mean_wait_seconds"`
	MaxWaitSeconds  float64 `json:"max_wait_seconds"`
	// Utilization and Backfilled echo the machine-level run statistics.
	Utilization float64 `json:"utilization"`
	Backfilled  int     `json:"backfilled"`
	// Cached reports the outcome was served from the scenario cache.
	Cached bool `json:"cached"`
	// Error is set when the scenario could not be simulated (e.g. an
	// unknown policy name); the other fields are then zero.
	Error string `json:"error,omitempty"`
}

// Sizing is the answer to "how much load keeps the bound under target":
// the largest arrival-rate multiplier whose simulated bound meets the SLO.
type Sizing struct {
	Scenario Scenario `json:"scenario"`
	// TargetSeconds is the SLO on the bound.
	TargetSeconds float64 `json:"target_seconds"`
	// MaxRateMultiplier is the largest feasible multiplier found in
	// [MinRateMultiplier, MaxRateMultiplier] (valid when OK).
	MaxRateMultiplier float64 `json:"max_rate_multiplier"`
	// BoundSeconds is the simulated bound at MaxRateMultiplier.
	BoundSeconds float64 `json:"bound_seconds"`
	// OK is false when even the search floor violates the target (or the
	// floor scenario failed to produce a bound).
	OK bool `json:"ok"`
	// Evaluations counts simulated scenarios the search spent (cache hits
	// included).
	Evaluations int `json:"evaluations"`
}

// Config parameterizes a Planner.
type Config struct {
	// Workload is the base synthetic workload (the CRN trace is sampled
	// from it once, at planner construction).
	Workload scheduler.WorkloadConfig
	// Machine is the base machine description.
	Machine scheduler.Config
	// Queue filters which simulated waits feed the bound ("" = all jobs).
	Queue string
	// Quantile and Confidence select the bound, defaulting to the paper's
	// 0.95/0.95.
	Quantile, Confidence float64
}

func (c Config) withDefaults() Config {
	if c.Quantile == 0 {
		c.Quantile = 0.95
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if c.Machine.Procs == 0 {
		c.Machine = scheduler.DefaultMachine()
	}
	return c
}

// Planner evaluates scenario grids against one base workload. Safe for
// concurrent use; hold one per served stream or machine profile.
type Planner struct {
	cfg Config
	bt  *scheduler.BaseTrace

	workers sync.Pool // *worker

	mu    sync.Mutex
	fp    uint64
	cache map[Scenario]Outcome

	hits, misses atomic.Uint64
}

// worker is the per-goroutine replay state: a pooled kernel plus scratch.
type worker struct {
	k      *scheduler.Kernel
	waits  []float64
	queues []scheduler.QueueClass
}

// NewPlanner samples the base trace for cfg and returns a planner with an
// empty cache.
func NewPlanner(cfg Config) *Planner {
	cfg = cfg.withDefaults()
	p := &Planner{
		cfg:   cfg,
		bt:    scheduler.NewBaseTrace(cfg.Workload),
		cache: make(map[Scenario]Outcome),
	}
	p.workers.New = func() any { return &worker{k: scheduler.NewKernel()} }
	return p
}

// Config returns the planner's resolved configuration.
func (p *Planner) Config() Config { return p.cfg }

// CacheHits and CacheMisses report cumulative scenario-cache traffic.
func (p *Planner) CacheHits() uint64   { return p.hits.Load() }
func (p *Planner) CacheMisses() uint64 { return p.misses.Load() }

// CacheSize reports the number of memoized scenarios.
func (p *Planner) CacheSize() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cache)
}

// Evaluate simulates every scenario and returns outcomes in input order.
// fingerprint identifies the model snapshot the caller is planning
// against; when it changes, the scenario cache is invalidated wholesale
// (the cached bounds described a model that no longer exists).
func (p *Planner) Evaluate(fingerprint uint64, scenarios []Scenario) []Outcome {
	outs := make([]Outcome, len(scenarios))
	miss := make([]int, 0, len(scenarios))

	p.mu.Lock()
	if p.fp != fingerprint {
		p.fp = fingerprint
		clear(p.cache)
	}
	for i, sc := range scenarios {
		if o, ok := p.cache[sc.key()]; ok {
			// Echo the scenario as this request sent it: the entry may have
			// been stored by a different literal with the same key (an
			// omitted rate multiplier and an explicit 1, say).
			o.Cached = true
			o.Scenario = sc
			outs[i] = o
		} else {
			miss = append(miss, i)
		}
	}
	p.mu.Unlock()
	p.hits.Add(uint64(len(scenarios) - len(miss)))
	p.misses.Add(uint64(len(miss)))

	parallel.ForEachIndex(len(miss), func(mi int) {
		i := miss[mi]
		outs[i] = p.simulate(scenarios[i])
	})

	p.mu.Lock()
	// Publish under the fingerprint we computed for; a concurrent refit
	// may have swapped it, in which case these outcomes are already stale.
	if p.fp == fingerprint {
		for _, i := range miss {
			p.cache[scenarios[i].key()] = outs[i]
		}
	}
	p.mu.Unlock()
	return outs
}

// simulate replays one scenario on a pooled worker kernel.
func (p *Planner) simulate(sc Scenario) Outcome {
	out := Outcome{Scenario: sc}
	norm := sc.key()

	w := p.workers.Get().(*worker)
	defer p.workers.Put(w)

	machine := p.cfg.Machine
	if sc.Policy != "" {
		pol, err := scheduler.ParsePolicy(sc.Policy)
		if err != nil {
			out.Error = err.Error()
			return out
		}
		machine.Policy = pol
	}
	var pert scheduler.Perturbation
	pert.RateMultiplier = norm.RateMultiplier
	if sc.Procs > 0 {
		if sc.Procs < machine.Procs {
			machine.Procs = sc.Procs
		}
		pert.MaxProcs = machine.Procs
		// Shrink queue ceilings with the machine so the workload stays
		// admissible.
		w.queues = w.queues[:0]
		for _, q := range p.cfg.Machine.Queues {
			if q.MaxProcs == 0 || q.MaxProcs > machine.Procs {
				q.MaxProcs = machine.Procs
			}
			w.queues = append(w.queues, q)
		}
		machine.Queues = w.queues
	}

	p.bt.Fill(w.k.Jobs(p.bt.Len()), pert)
	res, err := w.k.Run(machine)
	if err != nil {
		out.Error = fmt.Sprintf("whatif: scenario %+v: %v", norm, err)
		return out
	}

	w.waits = w.waits[:0]
	var sum, max float64
	for i := range res.Jobs {
		j := &res.Jobs[i]
		if p.cfg.Queue != "" && j.Queue != p.cfg.Queue {
			continue
		}
		wt := j.Wait()
		w.waits = append(w.waits, wt)
		sum += wt
		if wt > max {
			max = wt
		}
	}
	sort.Float64s(w.waits)
	out.Jobs = len(w.waits)
	if out.Jobs > 0 {
		out.MeanWaitSeconds = sum / float64(out.Jobs)
		out.MaxWaitSeconds = max
	}
	out.BoundSeconds, out.BoundOK = core.UpperBound(w.waits, p.cfg.Quantile, p.cfg.Confidence, core.ModeAuto)
	out.Utilization = res.Utilization
	out.Backfilled = res.Backfilled
	return out
}

// Sizing search space and precision. The bounds are generous — a machine
// that can absorb 8x its base arrival rate within SLO is not the case
// operators ask about — and 12 bisection steps resolve the multiplier to
// (hi-lo)/4096 < 0.2% of the range.
const (
	sizingLoMul = 1.0 / 8
	sizingHiMul = 8.0
	sizingIters = 12
)

// SizeToSLO binary-searches the largest arrival-rate multiplier (within
// [1/8, 8]) whose simulated bound stays at or under targetSeconds, holding
// the rest of base fixed. It assumes the bound is monotone non-decreasing
// in the arrival rate — the H-SLOSizing invariant exercised in CI. Every
// probe lands in the same fingerprint-keyed cache Evaluate uses, so
// repeated sizing queries against one model snapshot converge to cache
// hits.
func (p *Planner) SizeToSLO(fingerprint uint64, base Scenario, targetSeconds float64) Sizing {
	s := Sizing{Scenario: base, TargetSeconds: targetSeconds}
	probe := func(mul float64) Outcome {
		sc := base
		sc.RateMultiplier = mul
		s.Evaluations++
		return p.Evaluate(fingerprint, []Scenario{sc})[0]
	}

	lo, hi := sizingLoMul, sizingHiMul
	oLo := probe(lo)
	if !oLo.BoundOK || oLo.BoundSeconds > targetSeconds {
		// Even the floor violates the SLO (or cannot produce a bound).
		s.BoundSeconds = oLo.BoundSeconds
		return s
	}
	s.OK = true
	s.MaxRateMultiplier = lo
	s.BoundSeconds = oLo.BoundSeconds
	if oHi := probe(hi); oHi.BoundOK && oHi.BoundSeconds <= targetSeconds {
		s.MaxRateMultiplier = hi
		s.BoundSeconds = oHi.BoundSeconds
		return s
	}
	for i := 0; i < sizingIters; i++ {
		mid := (lo + hi) / 2
		if o := probe(mid); o.BoundOK && o.BoundSeconds <= targetSeconds {
			lo = mid
			s.MaxRateMultiplier = mid
			s.BoundSeconds = o.BoundSeconds
		} else {
			hi = mid
		}
	}
	return s
}
