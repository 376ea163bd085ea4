package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/scheduler"
	"repro/internal/wal"
	"repro/internal/whatif"
	"repro/qbets"
)

// layerSumTolerance is how much of the mean client latency the traced
// layers may leave unaccounted. The sum is the client's wait for a free
// connection (send minus due), the wire (client round trip minus handler
// span), the handler's self time and its WAL and commit-wait children: a
// request whose handler span went missing, or child spans that do not
// nest inside their handler, show up here.
const layerSumTolerance = 0.25

// perLayer lists every per-layer metric the traced run reports, with
// its unit. A metric whose layer a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"loadgen.late_p99_ms", "ms"}, {"loadgen.cpu_share", "ratio"},
	{"http.wire_p50_us", "us"}, {"http.wire_p99_us", "us"},
	{"server.observe_self_us", "us"}, {"server.decode_us_per_record", "us"},
	{"server.forecast_us", "us"}, {"server.forecast_batch_us", "us"}, {"server.whatif_ms", "ms"},
	{"service.apply_us_per_record", "us"}, {"service.forecast_ns", "ns"},
	{"service.restore_s", "s"}, {"service.replay_s", "s"}, {"service.heap_kb_per_stream", "KiB"},
	{"wal.write_p50_us", "us"}, {"wal.fsync_p50_us", "us"}, {"wal.fsync_p99_us", "us"},
	{"wal.fsyncs_per_kreq", "count"}, {"wal.records_per_fsync", "count"}, {"wal.bytes_per_record", "B"},
	{"repl.commit_wait_p50_us", "us"}, {"repl.commit_wait_p99_us", "us"},
	{"repl.send_p50_us", "us"}, {"repl.msgs_per_krecord", "count"}, {"repl.bytes_per_record", "B"},
	{"repl.catchup_s", "s"}, {"repl.snapshot_mb_per_s", "MB/s"}, {"repl.lag_p99_records", "count"},
	{"whatif.sim_runs_per_req", "count"}, {"whatif.cache_hit_ratio", "ratio"}, {"whatif.sizing_evals_per_req", "count"},
	{"whatif.plan_ms", "ms"}, {"scheduler.run_ms", "ms"},
	{"proc.leader_cpu_ms_per_kreq", "ms"}, {"proc.follower_cpu_ms_per_kreq", "ms"}, {"proc.leader_gc_per_kreq", "count"},
	{"trace.unaccounted_share", "ratio"}, {"trace.overhead_share", "ratio"},
	{"warmup.observe_p50_ms", "ms"}, {"warmup.observe_p99_ms", "ms"},
}

func readSpans(path string) (*spanFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf spanFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &sf, nil
}

// window selects the child spans of kind k that started inside a phase.
type window struct{ from, to int64 } // Unix ns

func (p *pass) window(ph *phase) window {
	return window{p.cl.epoch.Add(ph.start).UnixNano(), p.cl.epoch.Add(ph.end).UnixNano()}
}

func (sf *spanFile) in(k spanKind, w window) (durs []float64, sizes int64) {
	for i, st := range sf.Starts[k] {
		if st >= w.from && st < w.to {
			durs = append(durs, float64(sf.Durations[k][i]))
			sizes += sf.Sizes[k][i]
		}
	}
	return durs, sizes
}

func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	v, _ := tail(xs, q)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// gcCycles counts gctrace lines ("gc N @Ts ...") whose time since process
// start falls in [from, to) seconds.
func gcCycles(logPath string, from, to float64) int {
	f, err := os.Open(logPath)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) < 3 || fs[0] != "gc" || !strings.HasPrefix(fs[2], "@") {
			continue
		}
		at, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimPrefix(fs[2], "@"), "s"), 64)
		if err == nil && at >= from && at < to {
			n++
		}
	}
	return n
}

// layers computes every per-layer metric: spans and counts from the
// traced pass, validity and replication figures from the untraced pass,
// and direct timed calls into service, whatif and scheduler on the run's
// recorded inputs.
func (b *bench) layers(plain, tr *pass, e2e, trE2E map[string]metric) (map[string]metric, error) {
	v := map[string]float64{}
	leaderSpans, err := readSpans(filepath.Join(tr.c.dir, "leader.spans"))
	if err != nil {
		return nil, err
	}
	var followerSpans *spanFile
	if tr.c.follower != nil {
		if followerSpans, err = readSpans(filepath.Join(tr.c.dir, "follower", "follower.spans")); err != nil {
			return nil, err
		}
	}

	// Generator validity (untraced pass).
	pn := plain.rungs[1]
	var late []float64
	for _, r := range pn.results {
		if r.op != opProbe && !r.dropped {
			late = append(late, float64(r.sent-r.due)/1e6)
		}
	}
	v["loadgen.late_p99_ms"] = pct(late, 0.99)
	v["loadgen.cpu_share"] = plain.genCPU / (plain.genWall * float64(runtime.NumCPU()))

	// Handler spans matched to client requests (traced pass, nominal rung).
	tn := tr.rungs[1]
	spans := map[uint64]*reqSpan{}
	for i := range leaderSpans.Requests {
		spans[leaderSpans.Requests[i].ID] = &leaderSpans.Requests[i]
	}
	if followerSpans != nil {
		for i := range followerSpans.Requests {
			spans[followerSpans.Requests[i].ID] = &followerSpans.Requests[i]
		}
	}
	headline, _ := opByName(b.spec.Headline)
	handler := map[op][]float64{}
	var wire, selfObs, clientLat, accounted []float64
	var observeRecords int
	for _, r := range tn.results {
		if !r.ok || r.op == opProbe {
			continue
		}
		if r.op == opObserve {
			observeRecords += r.records
		}
		s := spans[r.id]
		if r.op == headline {
			clientLat = append(clientLat, float64(r.latency()))
		}
		if s == nil {
			if r.op == headline {
				accounted = append(accounted, float64(r.sent-r.due))
			}
			continue
		}
		h := float64(s.End - s.Start)
		handler[r.op] = append(handler[r.op], h)
		children := float64(s.Child[spanWALWrite] + s.Child[spanWALSync] + s.Child[spanCommit])
		if r.op == opObserve && r.records == observeBatchRecords {
			selfObs = append(selfObs, h-children)
		}
		if r.op == headline {
			w := float64(r.done-r.sent) - h
			wire = append(wire, w)
			// A child span outside its handler (self < 0) overstates
			// the sum rather than cancelling out.
			accounted = append(accounted, float64(r.sent-r.due)+w+math.Max(h-children, 0)+children)
		}
	}
	v["http.wire_p50_us"] = pct(wire, 0.5) / 1e3
	v["http.wire_p99_us"] = pct(wire, 0.99) / 1e3
	v["server.observe_self_us"] = mean(selfObs) / 1e3
	v["server.forecast_us"] = mean(handler[opForecast]) / 1e3
	v["server.forecast_batch_us"] = mean(handler[opBatch]) / 1e3
	v["server.whatif_ms"] = mean(handler[opWhatif]) / 1e6
	if c := mean(clientLat); c > 0 {
		v["trace.unaccounted_share"] = (c - mean(accounted)) / c
	}
	if u := e2e["headline_p50_ms"].Value; u > 0 {
		v["trace.overhead_share"] = (trE2E["headline_p50_ms"].Value - u) / u
	}
	tr.checks = append(tr.checks, checkResult{"layer_sum",
		v["trace.unaccounted_share"] >= -layerSumTolerance && v["trace.unaccounted_share"] <= layerSumTolerance,
		fmt.Sprintf("wire+self+WAL+commit leave %.3f of mean %s latency unaccounted (tolerance %.2f)", v["trace.unaccounted_share"], b.spec.Headline, layerSumTolerance)})

	// WAL, commit wait and shipping at the nominal rung.
	w := tr.window(tn)
	kreq := float64(len(tn.results)) / 1000
	writes, walBytes := leaderSpans.in(spanWALWrite, w)
	syncs, _ := leaderSpans.in(spanWALSync, w)
	commits, _ := leaderSpans.in(spanCommit, w)
	sends, sendBytes := leaderSpans.in(spanSend, w)
	v["wal.write_p50_us"] = pct(writes, 0.5) / 1e3
	v["wal.fsync_p50_us"] = pct(append([]float64(nil), syncs...), 0.5) / 1e3
	v["wal.fsync_p99_us"] = pct(syncs, 0.99) / 1e3
	v["wal.fsyncs_per_kreq"] = float64(len(syncs)) / kreq
	if len(syncs) > 0 {
		v["wal.records_per_fsync"] = float64(observeRecords) / float64(len(syncs))
	}
	if observeRecords > 0 {
		v["wal.bytes_per_record"] = float64(walBytes) / float64(observeRecords)
		v["repl.msgs_per_krecord"] = float64(len(sends)) / (float64(observeRecords) / 1000)
		v["repl.bytes_per_record"] = float64(sendBytes) / float64(observeRecords)
	}
	v["repl.commit_wait_p50_us"] = pct(append([]float64(nil), commits...), 0.5) / 1e3
	v["repl.commit_wait_p99_us"] = pct(commits, 0.99) / 1e3
	v["repl.send_p50_us"] = pct(sends, 0.5) / 1e3
	if plain.c.follower != nil {
		v["repl.catchup_s"] = plain.c.catchup
		v["repl.snapshot_mb_per_s"] = plain.c.snapBytes / plain.c.catchup / 1e6
		var lags []float64
		for _, s := range plain.lag {
			if s.at >= pn.start && s.at <= pn.end {
				lags = append(lags, s.lag)
			}
		}
		v["repl.lag_p99_records"] = pct(lags, 0.99)
	}

	// Node processes at the nominal rung (traced pass).
	v["proc.leader_cpu_ms_per_kreq"] = tn.cpu[0] * 1000 / kreq
	if len(tn.cpu) > 1 {
		v["proc.follower_cpu_ms_per_kreq"] = tn.cpu[1] * 1000 / kreq
	}
	from := tr.cl.epoch.Add(tn.start).Sub(tr.c.leader.started).Seconds()
	to := tr.cl.epoch.Add(tn.end).Sub(tr.c.leader.started).Seconds()
	v["proc.leader_gc_per_kreq"] = float64(gcCycles(tr.c.leader.logPath, from, to)) / kreq

	// Planner counters over the whole untraced pass.
	if n := plain.cl.ops[opWhatif].succeeded; n > 0 {
		m0, m1 := plain.metrics0, plain.end.leaderM
		scen := m1["qbets_whatif_scenarios_total"] - m0["qbets_whatif_scenarios_total"]
		hits := m1["qbets_whatif_cache_hits_total"] - m0["qbets_whatif_cache_hits_total"]
		v["whatif.sim_runs_per_req"] = (scen - hits) / float64(n)
		if scen > 0 {
			v["whatif.cache_hit_ratio"] = hits / scen
		}
		v["whatif.sizing_evals_per_req"] = mean(plain.cl.sizing)
	}

	// Warm-up window right after catch-up (untraced pass).
	if plain.warmup != nil {
		st := phaseOpStats(plain.warmup.results, opObserve)
		v["warmup.observe_p50_ms"] = st.p50
		v["warmup.observe_p99_ms"] = st.p99
	}

	if err := b.direct(plain, v); err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out, nil
}

// direct makes timed calls straight into the service, planner and
// simulation kernel on the run's recorded inputs, with no HTTP, WAL or
// replication in the way.
func (b *bench) direct(plain *pass, v map[string]float64) error {
	prep := filepath.Join(b.dir, "prep")
	nominal := plain.rungs[1].reqs

	// Restore, replay and heap per stream.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	srv := qbets.NewServer(true)
	start := time.Now()
	if err := srv.LoadFile(filepath.Join(prep, "state.json")); err != nil {
		return err
	}
	v["service.restore_s"] = time.Since(start).Seconds()
	runtime.GC()
	runtime.ReadMemStats(&after)
	svc := srv.Service()
	v["service.heap_kb_per_stream"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1024 / float64(svc.NumStreams())
	walDir := filepath.Join(b.dir, "direct-wal")
	if err := copyTree(filepath.Join(prep, "wal"), walDir); err != nil {
		return err
	}
	lg, err := wal.Open(walDir, wal.Options{Mode: wal.SyncOff})
	if err != nil {
		return err
	}
	start = time.Now()
	_, err = svc.RecoverWAL(lg)
	v["service.replay_s"] = time.Since(start).Seconds()
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// Detach from the log for the apply timing: a fresh restore.
	srv = qbets.NewServer(true)
	if err := srv.LoadFile(filepath.Join(prep, "state.json")); err != nil {
		return err
	}
	svc = srv.Service()

	// Apply: the run's observe batches, decoded up front.
	var batches [][]qbets.ObserveRecord
	var keys []*stream
	for _, r := range nominal {
		switch r.op {
		case opObserve:
			var recs []qbets.ObserveRecord
			if err := json.Unmarshal(r.body, &recs); err != nil {
				return err
			}
			batches = append(batches, recs)
		case opForecast:
			keys = append(keys, b.in.streams[r.streams[0]])
		}
	}
	if len(batches) > 0 {
		n := 0
		start = time.Now()
		for _, recs := range batches {
			if _, err := svc.ObserveBatch(recs); err != nil {
				return err
			}
			n += len(recs)
		}
		v["service.apply_us_per_record"] = time.Since(start).Seconds() * 1e6 / float64(n)
	}
	if self := v["server.observe_self_us"]; self > 0 {
		v["server.decode_us_per_record"] = self/observeBatchRecords - v["service.apply_us_per_record"]
	}
	if len(keys) > 0 {
		calls := 0
		start = time.Now()
		for calls < 200000 {
			for _, s := range keys {
				svc.Forecast(s.queue, s.procs)
			}
			calls += len(keys)
		}
		v["service.forecast_ns"] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}

	// Planner: the run's whatif requests, each under a fresh fingerprint
	// so every scenario simulates.
	var reqs []qbets.WhatifRequest
	for _, r := range nominal {
		if r.op != opWhatif || len(reqs) == 20 {
			continue
		}
		var req qbets.WhatifRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	if len(reqs) > 0 {
		jobs := b.spec.WhatifJobs
		if jobs == 0 {
			jobs = 2000
		}
		p := whatif.NewPlanner(whatif.Config{
			Workload: scheduler.WorkloadConfig{Jobs: jobs, Seed: 42},
			Machine:  scheduler.DefaultMachine(),
			Quantile: 0.95, Confidence: 0.95,
		})
		start = time.Now()
		for i, req := range reqs {
			fp := uint64(i + 1)
			p.Evaluate(fp, append([]whatif.Scenario{{}}, req.Scenarios...))
			if req.Sizing != nil {
				p.SizeToSLO(fp, req.Sizing.Scenario, req.Sizing.TargetSeconds)
			}
		}
		v["whatif.plan_ms"] = time.Since(start).Seconds() * 1e3 / float64(len(reqs))
	}

	// One 2,000-job kernel run, median of three.
	var runs []float64
	for i := 0; i < 3; i++ {
		jobs := scheduler.GenerateJobs(scheduler.WorkloadConfig{Jobs: 2000, Seed: 42})
		start = time.Now()
		if _, err := scheduler.Run(scheduler.DefaultMachine(), jobs); err != nil {
			return err
		}
		runs = append(runs, time.Since(start).Seconds()*1e3)
	}
	v["scheduler.run_ms"] = median(runs)
	return nil
}
