package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/qbets"
)

type op int

const (
	opObserve op = iota
	opForecast
	opBatch
	opWhatif
	opProbe
	numOps
)

var opNames = [numOps]string{"observe", "forecast", "forecast_batch", "whatif", "probe"}

func opByName(s string) (op, bool) {
	for i, n := range opNames {
		if n == s {
			return op(i), true
		}
	}
	return 0, false
}

const (
	observeBatchRecords = 100
	forecastBatchShapes = 32
	// drainLimit bounds how long an overloaded rung's backlog is worked
	// off after its schedule ends; what is still unsent then is dropped
	// and counted as a miss at its censored latency.
	drainLimit = time.Second
	// requestIDHeader carries the client's request id to a traced node,
	// which keys its handler span by it. Untraced nodes ignore it, so both
	// runs send identical bytes.
	requestIDHeader = "X-Bench-Request"
)

// request is one scheduled operation. Bodies are encoded before the clock
// starts so the generator does no encoding while it measures.
type request struct {
	op      op
	node    int           // 0 leader, 1 follower
	due     time.Duration // offset from the phase start (open loop)
	path    string
	body    []byte
	streams []int32 // observe: stream of every record (ack accounting); forecast: the stream read
	tmpl    int     // whatif: template index
}

// result is one attempted (or dropped) request. Times are offsets from
// the run epoch.
type result struct {
	op      op
	ok      bool
	dropped bool
	records int // observe: records in the batch
	id      uint64
	due     time.Duration
	sent    time.Duration
	done    time.Duration
}

// latency is the due-time latency: what a caller who wanted the answer
// at its due time waited, including any wait behind a stalled generator.
func (r *result) latency() time.Duration { return r.done - r.due }

// phase is one stretch of traffic: an open-loop rung (a fixed schedule)
// or the closed loop (nproc back-to-back clients).
type phase struct {
	name    string
	open    bool
	rate    float64
	dur     time.Duration
	reqs    []request
	results []result
	// start/end offsets from the run epoch and node CPU over the phase.
	start, end time.Duration
	cpu        []float64
	lagMax     float64
}

// builder draws requests from a workload's mix, deterministically from
// its rng.
type builder struct {
	spec    *workloadSpec
	in      *inputs
	rng     *rand.Rand
	zipf    *rand.Zipf
	perm    []int32
	ops     []op
	weights []float64
	recent  []whatifPoint // the last few fresh grid points, for repeats
	bodies  [][]byte      // every distinct whatif body, by template index
	target  float64       // sizing SLO scale, from the anchor's preload waits
}

func newBuilder(spec *workloadSpec, in *inputs, seed int64) *builder {
	b := &builder{spec: spec, in: in, rng: rand.New(rand.NewSource(seed))}
	names := make([]string, 0, len(spec.Mix))
	for n := range spec.Mix {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, _ := opByName(n)
		b.ops = append(b.ops, o)
		b.weights = append(b.weights, spec.Mix[n])
	}
	if spec.ObserveSkew == "zipf" {
		b.zipf = rand.NewZipf(b.rng, 1.1, 1, uint64(len(in.streams)-1))
		b.perm = make([]int32, len(in.streams))
		for i, p := range b.rng.Perm(len(in.streams)) {
			b.perm[i] = int32(p)
		}
	}
	w := append([]float64(nil), in.anchor.waits[:spec.PreloadPerStream]...)
	sort.Float64s(w)
	b.target = w[int(0.95*float64(len(w)))]
	return b
}

func (b *builder) pickOp() op {
	x := b.rng.Float64()
	var sum float64
	for i, w := range b.weights {
		sum += w
		if x < sum {
			return b.ops[i]
		}
	}
	return b.ops[len(b.ops)-1]
}

// readNode splits reads evenly between leader and follower.
func (b *builder) readNode() int {
	if !b.spec.Follower {
		return 0
	}
	return b.rng.Intn(2)
}

// observeStream picks the stream of one observed record. With a trickle
// the anchor (stream 0) is left out, so only the trickle moves its
// generation.
func (b *builder) observeStream() int32 {
	if b.zipf != nil {
		return b.perm[b.zipf.Uint64()]
	}
	if b.spec.TrickleRPS > 0 {
		return 1 + int32(b.rng.Intn(len(b.in.streams)-1))
	}
	return int32(b.rng.Intn(len(b.in.streams)))
}

func (b *builder) build(o op) request {
	switch o {
	case opObserve:
		r := request{op: o, path: "/v1/observe", streams: make([]int32, observeBatchRecords)}
		recs := make([]qbets.ObserveRecord, observeBatchRecords)
		for i := range recs {
			idx := b.observeStream()
			s := b.in.streams[idx]
			r.streams[i] = idx
			recs[i] = qbets.ObserveRecord{Queue: s.queue, Procs: s.procs, WaitSeconds: s.take()}
		}
		r.body = observeBody(make([]byte, 0, 64*observeBatchRecords), recs)
		return r
	case opForecast:
		i := int32(b.rng.Intn(len(b.in.streams)))
		return request{op: o, node: b.readNode(), path: forecastPath(b.in.streams[i]), streams: []int32{i}}
	case opBatch:
		ss := make([]*stream, forecastBatchShapes)
		for i := range ss {
			ss[i] = b.in.streams[b.rng.Intn(len(b.in.streams))]
		}
		return request{op: o, node: b.readNode(), path: "/v1/forecast", body: shapesBody(ss)}
	case opWhatif:
		return b.whatif()
	}
	panic("unreachable")
}

// trickle is one single-record observe into the whatif anchor stream:
// it advances the anchor's generation and so invalidates the planner
// cache at the workload's fixed trickle rate.
func (b *builder) trickle() request {
	s := b.in.anchor
	recs := []qbets.ObserveRecord{{Queue: s.queue, Procs: s.procs, WaitSeconds: s.take()}}
	return request{op: opObserve, path: "/v1/observe", body: observeBody(nil, recs), streams: []int32{0}}
}

func forecastPath(s *stream) string {
	return "/v1/forecast?queue=" + url.QueryEscape(s.queue) + "&procs=" + strconv.Itoa(s.procs)
}

// The scenario space: rate multipliers 0.50–1.50 in steps of 0.01 ×
// machine sizes × policies, 2,424 scenarios, so a fresh draw rarely hits
// the planner cache by chance.
var (
	whatifProcs    = []int{0, 96, 112, 144, 160, 192}
	whatifPolicies = []string{"", "fcfs", "easy", "conservative"}
)

// whatifPoint is one (rate, machine size) of a grid; a grid evaluates
// each point under every policy.
type whatifPoint struct {
	rate  float64
	procs int
}

// whatifRecent is how many earlier points a repeated point is drawn from.
const whatifRecent = 16

// whatif draws a grid anchored to the live anchor stream: four (rate,
// machine size) points, each under all four policies, so 16 scenarios.
// Two points are fresh and two repeat recent ones (cache hits while the
// anchor's generation holds), so every request carries the same mix of
// simulated and cached work. One request in eight repeats a recent
// request verbatim, and one in eight adds an SLO sizing search under the
// base policy.
func (b *builder) whatif() request {
	if len(b.bodies) > 0 && b.rng.Intn(8) == 0 {
		t := len(b.bodies) - 1 - b.rng.Intn(min(4, len(b.bodies)))
		return request{op: opWhatif, path: "/v1/whatif", body: b.bodies[t], tmpl: t}
	}
	req := qbets.WhatifRequest{Queue: b.in.anchor.queue, Procs: b.in.anchor.procs, WorkloadJobs: b.spec.WhatifJobs}
	for i := 0; i < 4; i++ {
		pt := whatifPoint{rate: float64(50+b.rng.Intn(101)) / 100, procs: whatifProcs[b.rng.Intn(len(whatifProcs))]}
		if i >= 2 && len(b.recent) > 0 {
			pt = b.recent[b.rng.Intn(len(b.recent))]
		} else {
			b.recent = append(b.recent, pt)
			if len(b.recent) > whatifRecent {
				b.recent = b.recent[1:]
			}
		}
		for _, pol := range whatifPolicies {
			req.Scenarios = append(req.Scenarios, qbets.WhatifScenario{RateMultiplier: pt.rate, Procs: pt.procs, Policy: pol})
		}
	}
	if b.rng.Intn(8) == 0 {
		req.Sizing = &qbets.WhatifSizingRequest{TargetSeconds: b.target * (0.8 + 0.7*b.rng.Float64())}
	}
	body, _ := json.Marshal(req)
	b.bodies = append(b.bodies, body)
	return request{op: opWhatif, path: "/v1/whatif", body: body, tmpl: len(b.bodies) - 1}
}

// schedule builds an open-loop phase: Poisson arrivals of the mix at
// rate, merged with the fixed-rate trickle arrivals.
func (b *builder) schedule(rate float64, dur time.Duration) []request {
	var reqs []request
	arrivals := func(r float64, mk func() request) {
		if r <= 0 {
			return
		}
		for t := b.rng.ExpFloat64() / r; t < dur.Seconds(); t += b.rng.ExpFloat64() / r {
			q := mk()
			q.due = time.Duration(t * float64(time.Second))
			reqs = append(reqs, q)
		}
	}
	arrivals(rate, func() request { return b.build(b.pickOp()) })
	arrivals(b.spec.TrickleRPS, b.trickle)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	return reqs
}

// client sends requests and keeps the per-run bookkeeping the checks need.
type client struct {
	http    *http.Client
	nodes   []*node
	epoch   time.Time
	nextID  atomic.Uint64
	workers int
	spec    *workloadSpec
	in      *inputs

	mu         sync.Mutex
	acked      []int64 // per stream (probe stream last): records acked 204
	probeNext  int     // probe observations the leader has acked
	whatif     map[string][]byte
	whatifErr  int
	whatifDiff string    // where the first differing pair of responses parts
	sizing     []float64 // evaluations per sizing response
	ops        [numOps]opCount
	// The closed loop draws its requests as it goes, from the builder
	// (under buildMu); a due trickle is claimed by CAS on trickleDue.
	build      *builder
	buildMu    sync.Mutex
	trickleDue atomic.Int64
}

type opCount struct{ attempted, succeeded, failed, dropped int }

func newClient(spec *workloadSpec, in *inputs, nodes []*node, workers int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     workers,
		MaxIdleConnsPerHost: workers,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{
		http:      &http.Client{Transport: tr, Timeout: 10 * time.Second},
		nodes:     nodes,
		epoch:     time.Now(),
		workers:   workers,
		spec:      spec,
		in:        in,
		acked:     make([]int64, len(in.streams)+1),
		whatif:    map[string][]byte{},
		probeNext: spec.PreloadPerStream,
	}
}

func (c *client) since() time.Duration { return time.Since(c.epoch) }

// send performs one HTTP exchange; the body is returned only when keep.
func (c *client) send(n int, method, path string, body []byte, id uint64, keep bool) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.nodes[n].base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		out, err := io.ReadAll(resp.Body)
		return resp.StatusCode, out, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

// exec runs one request and fills res.ok/sent/done.
func (c *client) exec(r *request, res *result, acked []int64) {
	res.op = r.op
	res.id = c.nextID.Add(1)
	res.sent = c.since()
	switch r.op {
	case opObserve:
		code, _, err := c.send(0, http.MethodPost, r.path, r.body, res.id, false)
		res.ok = err == nil && code == http.StatusNoContent
		res.records = len(r.streams)
		if res.ok {
			for _, s := range r.streams {
				acked[s]++
			}
		}
	case opForecast:
		code, _, err := c.send(r.node, http.MethodGet, r.path, nil, res.id, false)
		res.ok = err == nil && code == http.StatusOK
	case opBatch:
		code, _, err := c.send(r.node, http.MethodPost, r.path, r.body, res.id, false)
		res.ok = err == nil && code == http.StatusOK
	case opWhatif:
		code, body, err := c.send(0, http.MethodPost, r.path, r.body, res.id, true)
		res.ok = err == nil && code == http.StatusOK
		if res.ok {
			c.recordWhatif(r.tmpl, body)
		}
	}
	res.done = c.since()
}

// probe acks one constant-wait record on the leader's probe stream, then
// polls the follower's single GET until it shows the new observation
// count. Its latency runs from the leader's 204 to that first read. Only
// the prober goroutine calls it.
func (c *client) probe() result {
	res := result{op: opProbe, id: c.nextID.Add(1)}
	res.sent = c.since()
	body := observeBody(nil, []qbets.ObserveRecord{{Queue: probeQueue, Procs: 1, WaitSeconds: 1}})
	code, _, err := c.send(0, http.MethodPost, "/v1/observe", body, res.id, false)
	res.due = c.since()
	if err != nil || code != http.StatusNoContent {
		res.done = res.due
		return res
	}
	c.probeNext++
	path := forecastPath(c.in.probe)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		code, body, err := c.send(1, http.MethodGet, path, nil, c.nextID.Add(1), true)
		if err == nil && code == http.StatusOK {
			var f qbets.ForecastResponse
			if json.Unmarshal(body, &f) == nil && f.Observations >= c.probeNext {
				res.done = c.since()
				res.ok = true
				return res
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	res.done = c.since()
	return res
}

// runProber sends follower-visibility probes at rate (Poisson) until
// stop closes. It is the one goroutine besides the nproc load workers,
// and probes one at a time.
func (c *client) runProber(rate float64, rng *rand.Rand, stop <-chan struct{}) []result {
	var out []result
	for {
		select {
		case <-stop:
			return out
		case <-time.After(time.Duration(rng.ExpFloat64() / rate * float64(time.Second))):
		}
		out = append(out, c.probe())
	}
}

// recordWhatif keeps the first response per (request, generation) and
// counts any later response that differs in more than the per-scenario
// cached flag, which legitimately flips once a grid is memoized.
func (c *client) recordWhatif(tmpl int, body []byte) {
	var resp qbets.WhatifResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		c.mu.Lock()
		c.whatifErr++
		c.mu.Unlock()
		return
	}
	var gen uint64
	if resp.Live != nil {
		gen = resp.Live.Generation
	}
	norm := bytes.ReplaceAll(bytes.ReplaceAll(body, []byte(`"cached":true`), []byte(`"cached":_`)), []byte(`"cached":false`), []byte(`"cached":_`))
	key := fmt.Sprintf("%d/%d", tmpl, gen)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.whatif[key]; !ok {
		c.whatif[key] = norm
	} else if !bytes.Equal(prev, norm) {
		c.whatifErr++
		if c.whatifDiff == "" {
			c.whatifDiff = firstDiff(prev, norm)
		}
	}
	if resp.Sizing != nil {
		c.sizing = append(c.sizing, float64(resp.Sizing.Evaluations))
	}
}

// firstDiff shows where two response bodies first differ.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-60, 0)
	return fmt.Sprintf("at byte %d: %q vs %q", i, a[lo:min(i+40, len(a))], b[lo:min(i+40, len(b))])
}

// runOpen sends a phase's schedule with c.workers goroutines, each taking
// the next request in due order and sleeping until it is due. A request
// still unsent drainLimit after the schedule ends is dropped.
func (c *client) runOpen(p *phase) {
	p.results = make([]result, len(p.reqs))
	start := c.since()
	p.start = start
	cutoff := start + p.dur + drainLimit
	var next atomic.Int64
	var wg sync.WaitGroup
	var probes []result
	probed := c.probeNext
	stopProbe := make(chan struct{})
	proberDone := make(chan struct{})
	if c.spec.Follower {
		rng := rand.New(rand.NewSource(int64(len(p.reqs))))
		go func() {
			defer close(proberDone)
			probes = c.runProber(probeRPS, rng, stopProbe)
		}()
	} else {
		close(proberDone)
	}
	locals := make([][]int64, c.workers)
	for w := 0; w < c.workers; w++ {
		locals[w] = make([]int64, len(c.acked))
		wg.Add(1)
		go func(acked []int64) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.reqs) {
					return
				}
				r := &p.reqs[i]
				res := &p.results[i]
				res.op = r.op
				res.due = start + r.due
				now := c.since()
				if now > cutoff {
					res.dropped = true
					res.done = cutoff
					continue
				}
				if d := res.due - now; d > 0 {
					time.Sleep(d)
				}
				c.exec(r, res, acked)
			}
		}(locals[w])
	}
	wg.Wait()
	p.end = c.since()
	close(stopProbe)
	<-proberDone
	locals[0][len(c.acked)-1] += int64(c.probeNext - probed)
	p.results = append(p.results, probes...)
	c.merge(locals, p)
}

// runClosed runs c.workers back-to-back clients for p.dur, each drawing
// its next request from the mix; a due trickle is sent by whichever
// client notices it first.
func (c *client) runClosed(p *phase) {
	start := c.since()
	p.start = start
	stop := start + p.dur
	trickle := c.spec.TrickleRPS > 0
	c.trickleDue.Store(int64(start))
	var wg sync.WaitGroup
	locals := make([][]int64, c.workers)
	outs := make([][]result, c.workers)
	for w := 0; w < c.workers; w++ {
		locals[w] = make([]int64, len(c.acked))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c.since() < stop {
				c.buildMu.Lock()
				var r request
				if due := c.trickleDue.Load(); trickle && c.since() >= time.Duration(due) &&
					c.trickleDue.CompareAndSwap(due, due+int64(float64(time.Second)/c.spec.TrickleRPS)) {
					r = c.build.trickle()
				} else {
					r = c.build.build(c.build.pickOp())
				}
				c.buildMu.Unlock()
				var res result
				c.exec(&r, &res, locals[w])
				res.due = res.sent
				outs[w] = append(outs[w], res)
			}
		}(w)
	}
	wg.Wait()
	p.end = c.since()
	for _, o := range outs {
		p.results = append(p.results, o...)
	}
	c.merge(locals, p)
}

func (c *client) merge(locals [][]int64, p *phase) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, l := range locals {
		for i, v := range l {
			c.acked[i] += v
		}
	}
	for i := range p.results {
		r := &p.results[i]
		oc := &c.ops[r.op]
		switch {
		case r.dropped:
			oc.dropped++
		case r.ok:
			oc.attempted++
			oc.succeeded++
		default:
			oc.attempted++
			oc.failed++
		}
	}
}

// opStats summarises one operation's due-time latencies in a phase.
type opStats struct {
	n, failed, dropped int
	p50, p99, q        float64 // ms; q is the tail quantile actually reported
}

func phaseOpStats(results []result, o op) opStats {
	var st opStats
	var lat []float64
	for i := range results {
		r := &results[i]
		if r.op != o {
			continue
		}
		switch {
		case r.dropped:
			st.dropped++
		case !r.ok:
			st.failed++
			continue
		}
		st.n++
		lat = append(lat, float64(r.latency())/1e6)
	}
	if len(lat) == 0 {
		return st
	}
	st.p99, st.q = windowedTail(lat, 0.99)
	st.p50 = median(lat)
	return st
}

// saturationSlack is how far past its schedule a rung may run while
// draining before it counts as saturated.
const saturationSlack = 250 * time.Millisecond

// rungOf evaluates one open-loop rung against the workload's limits.
func rungOf(p *phase, spec *workloadSpec) rung {
	r := rung{rate: p.rate, headroom: headroom(p, spec)}
	ok := 0
	for i := range p.results {
		switch res := &p.results[i]; {
		case res.dropped:
			r.saturated = true
		case res.ok && res.op != opProbe:
			ok++
		}
	}
	elapsed := p.end - p.start
	r.saturated = r.saturated || elapsed > p.dur+saturationSlack
	r.throughput = float64(ok) / elapsed.Seconds()
	return r
}

// headroom is the worst observed/limit ratio of a rung: every operation's
// p99 against its limit (a failed request misses), the failure share, and
// the follower lag against the lag limit.
func headroom(p *phase, spec *workloadSpec) float64 {
	h := 0.0
	for o := op(0); o < numOps; o++ {
		st := phaseOpStats(p.results, o)
		total := st.n + st.failed
		if total == 0 {
			continue
		}
		if lim := spec.P99LimitMS[opNames[o]]; lim > 0 {
			h = math.Max(h, st.p99/lim)
		}
		h = math.Max(h, float64(st.failed)/float64(total)/failLimit)
	}
	if spec.Follower {
		h = math.Max(h, p.lagMax/lagLimitRecords)
	}
	return h
}
