// Command perfbench is the end-to-end serving benchmark: it boots real
// qbets-serve processes (a leader and, where the workload needs one, a
// follower) on loopback with fresh directories on disk, drives them over
// HTTP from one load-generator process, checks their answers, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench/run.sh --workload serve-mixed --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics from an untraced run. --trace 1
// runs the workload twice, untraced then against the benchmark's own
// traced node entry ("perfbench node"), and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "node" {
		os.Exit(nodeMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "workload name from workloads.json")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		bin     = flag.String("serve-bin", ".bench_build/bin/qbets-serve", "qbets-serve binary under test")
		work    = flag.String("work", ".bench_build/runs", "directory for the nodes' state, WAL and logs")
	)
	flag.Parse()
	spec, err := loadSpec(*name)
	if err != nil {
		fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*work, spec.Name+"-")
	if err != nil {
		fatal(err)
	}
	b := &bench{spec: spec, seed: *seed, seconds: float64(*seconds), serveBin: *bin, selfBin: self, dir: dir}
	printEnv(dir)
	printWorkload(spec)
	out, err := b.run(*traced == 1)
	_ = os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

// progress notes a run's stages on standard error.
func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type bench struct {
	spec     *workloadSpec
	seed     int64
	seconds  float64
	serveBin string
	selfBin  string
	dir      string
	in       *inputs
}

// printEnv records the hardware and software the numbers were taken on.
func printEnv(dir string) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	fmt.Printf("env nproc=%d go=%s kernel=%s fs=%s\n", runtime.NumCPU(), runtime.Version(),
		strings.TrimSpace(string(kernel)), fsType(dir))
}

// printWorkload records what the workload sends: loop, rates, flags,
// preload and registry size.
func printWorkload(s *workloadSpec) {
	fmt.Printf("workload %s loop=%q rates_rps=%v clients=%d mix=%v leader_flags=%q follower=%v queues=%d streams=%d preload_per_stream=%d wal_tail_records=%d\n",
		s.Name, "open-loop Poisson ladder of three fixed rates, then a closed loop with nproc clients", s.RatesRPS, runtime.NumCPU(), s.Mix, s.LeaderFlags, s.Follower, s.Queues, 4*s.Queues, s.PreloadPerStream, s.WALTailRecords)
	fmt.Printf("why %s: %s\n", s.Name, s.Why)
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// cluster is one booted set of nodes.
type cluster struct {
	leader, follower *node
	dir              string
	setup            float64 // process start until serving and caught up
	catchup          float64 // follower start until lag 0
	snapBytes        float64 // bytes the leader shipped during catch-up
}

func (c *cluster) nodes() []*node {
	if c.follower == nil {
		return []*node{c.leader}
	}
	return []*node{c.leader, c.follower}
}

func (c *cluster) kill() {
	c.follower.kill()
	c.leader.kill()
}

// term shuts the nodes down cleanly, follower first.
func (c *cluster) term() {
	c.follower.term(20 * time.Second)
	c.leader.term(20 * time.Second)
}

var monitor = &http.Client{Timeout: 5 * time.Second}

// boot copies the prepared state into a fresh directory and starts the
// nodes: the leader first, then (once it answers /healthz) the follower,
// which must catch up to lag 0. The follower starts only after the leader
// serves so its reconnect backoff never adds to the set-up time.
func (b *bench) boot(tag string, traced bool) (*cluster, error) {
	dir := filepath.Join(b.dir, tag)
	if err := copyTree(filepath.Join(b.dir, "prep"), dir); err != nil {
		return nil, err
	}
	bin, env, pre := b.serveBin, []string(nil), []string(nil)
	if traced {
		bin, env, pre = b.selfBin, []string{"GODEBUG=gctrace=1"}, []string{"node"}
	}
	httpPort, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append(pre, "-addr", fmt.Sprintf("127.0.0.1:%d", httpPort), "-state", "state.json", "-wal", "wal")
	args = append(args, b.spec.LeaderFlags...)
	var replAddr string
	if b.spec.Follower {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		replAddr = fmt.Sprintf("127.0.0.1:%d", port)
		args = append(args, "-replicate-to", replAddr, "-epoch-dir", "epoch")
	}
	if traced {
		args = append(args, "-spans", "leader.spans")
	}
	c := &cluster{dir: dir}
	start := time.Now()
	if c.leader, err = startNode("leader", bin, args, env, dir, httpPort); err != nil {
		return nil, err
	}
	if err := waitFor(c.leader, 120*time.Second, "/healthz", func() bool { return healthy(monitor, c.leader) }); err != nil {
		c.kill()
		return nil, err
	}
	if b.spec.Follower {
		fdir := filepath.Join(dir, "follower")
		if err := os.MkdirAll(fdir, 0o755); err != nil {
			c.kill()
			return nil, err
		}
		port, err := freePort()
		if err != nil {
			c.kill()
			return nil, err
		}
		fargs := append(append([]string(nil), pre...), "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-follow", replAddr, "-epoch-dir", "epoch")
		if traced {
			fargs = append(fargs, "-spans", "follower.spans")
		}
		fstart := time.Now()
		if c.follower, err = startNode("follower", bin, fargs, env, fdir, port); err != nil {
			c.kill()
			return nil, err
		}
		if err := waitFor(c.follower, 120*time.Second, "catch-up", func() bool { return caughtUp(monitor, c.follower) }); err != nil {
			c.kill()
			return nil, err
		}
		c.catchup = time.Since(fstart).Seconds()
		if m, err := c.leader.metrics(monitor); err == nil {
			c.snapBytes = m["qbets_repl_ship_bytes_total"]
		}
	}
	c.setup = time.Since(start).Seconds()
	return c, nil
}

// selfCPU is the generator process's user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// An untraced run boots its nodes at least setupMinBoots times and until
// the boots add up to setupBudget, at most setupMaxBoots times. Set-up
// time is the median, so a workload whose boot takes tens of milliseconds
// takes it over dozens of boots; the last boot carries the traffic.
const (
	setupMinBoots = 5
	setupMaxBoots = 40
	setupBudget   = 3 * time.Second
)

// pass is one complete traffic run against one cluster.
type pass struct {
	c        *cluster
	cl       *client
	phases   []*phase // warmup (optional), three rungs, closed loop
	warmup   *phase
	rungs    []*phase
	closed   *phase
	lag      []lagSample
	status0  map[string]streamStatus
	metrics0 map[string]float64 // leader /metrics before the traffic
	genCPU   float64            // generator CPU seconds over the traffic
	genWall  float64
	checks   []checkResult
	end      endState
}

type lagSample struct {
	at  time.Duration
	lag float64
}

// endState is what is read from the nodes at quiescence.
type endState struct {
	leaderM  map[string]float64
	rssMiB   float64
	coverage float64
}

// plan builds a pass's phases for a run of seconds measured seconds.
func (b *bench) plan(bl *builder, seconds float64) *pass {
	p := &pass{}
	sec := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	rest := 1 - b.spec.WarmupShare
	r := b.spec.RatesRPS
	if b.spec.WarmupShare > 0 {
		p.warmup = &phase{name: "warmup", open: true, rate: r[1], dur: sec(b.spec.WarmupShare)}
		p.warmup.reqs = bl.schedule(r[1], p.warmup.dur)
		p.phases = append(p.phases, p.warmup)
	}
	for i, share := range []float64{0.2, 0.4, 0.15} {
		ph := &phase{name: fmt.Sprintf("rung%d", i+1), open: true, rate: r[i], dur: sec(rest * share)}
		ph.reqs = bl.schedule(r[i], ph.dur)
		p.rungs = append(p.rungs, ph)
		p.phases = append(p.phases, ph)
	}
	p.closed = &phase{name: "closed", dur: sec(rest * 0.25)}
	p.phases = append(p.phases, p.closed)
	return p
}

// drive runs every phase of p against its cluster, sampling node CPU at
// each phase boundary and follower lag every 100ms.
func (b *bench) drive(p *pass, bl *builder) error {
	cl := newClient(b.spec, b.in, p.c.nodes(), runtime.NumCPU())
	cl.build = bl
	p.cl = cl
	var err error
	if p.status0, err = fetchStatus(monitor, p.c.leader); err != nil {
		return err
	}
	if p.metrics0, err = p.c.leader.metrics(monitor); err != nil {
		return err
	}
	cpu0, wall0 := selfCPU(), time.Now()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var lagMu sync.Mutex
	if p.c.follower != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(100 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if m, err := p.c.follower.metrics(monitor); err == nil {
						lagMu.Lock()
						p.lag = append(p.lag, lagSample{at: cl.since(), lag: m["qbets_repl_lag"]})
						lagMu.Unlock()
					}
				}
			}
		}()
	}
	cpu := func() []float64 {
		var out []float64
		for _, n := range p.c.nodes() {
			out = append(out, n.cpuSeconds())
		}
		return out
	}
	for _, ph := range p.phases {
		before := cpu()
		if ph.open {
			cl.runOpen(ph)
		} else {
			cl.runClosed(ph)
		}
		// The phase's CPU includes the follower applying everything the
		// phase shipped, and no phase inherits another's backlog.
		if f := p.c.follower; f != nil {
			if err := waitFor(f, 30*time.Second, "quiescence", func() bool { return quiesced(monitor, p.c.leader, f, b.spec.WALTailRecords) }); err != nil {
				return err
			}
		}
		after := cpu()
		progress("phase %s: %d requests in %.2fs", ph.name, len(ph.results), (ph.end - ph.start).Seconds())
		for i := range after {
			ph.cpu = append(ph.cpu, after[i]-before[i])
		}
	}
	p.genCPU, p.genWall = selfCPU()-cpu0, time.Since(wall0).Seconds()
	close(stop)
	wg.Wait()
	for _, ph := range p.phases {
		for _, s := range p.lag {
			if s.at >= ph.start && s.at <= ph.end && s.lag > ph.lagMax {
				ph.lagMax = s.lag
			}
		}
	}
	return nil
}

// run executes the workload: one untraced pass (setup repeated), plus a
// traced pass when traced is set.
func (b *bench) run(traced bool) (*output, error) {
	t0 := time.Now()
	b.in = generateInputs(b.spec, b.seed)
	if err := prepare(b.spec, b.in, filepath.Join(b.dir, "prep"), b.seed); err != nil {
		return nil, fmt.Errorf("preparing state: %v", err)
	}
	progress("prepared %d streams in %.1fs", len(b.in.streams), time.Since(t0).Seconds())
	seconds := b.seconds
	if traced {
		seconds /= 2
	}
	// Every pass starts from the same inputs: the stream cursors as the
	// preload left them and a fresh builder on the same seed, so the
	// traced pass replays the untraced pass's open-loop schedule exactly.
	cursors := b.in.cursors()
	newPass := func() (*pass, *builder) {
		b.in.rewind(cursors)
		bl := newBuilder(b.spec, b.in, b.seed^0x5eed)
		return b.plan(bl, seconds), bl
	}
	plain, bl := newPass()

	var setups []float64
	total := 0.0
	for i := 0; ; i++ {
		c, err := b.boot(fmt.Sprintf("boot%d", i), false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.setup)
		total += c.setup
		if i < setupMinBoots || i%10 == 0 {
			progress("boot %d: set-up %.3fs (follower catch-up %.3fs)", i, c.setup, c.catchup)
		}
		enough := len(setups) >= setupMinBoots && total >= setupBudget.Seconds()
		if traced || enough || len(setups) == setupMaxBoots {
			plain.c = c
			break
		}
		c.kill()
		_ = os.RemoveAll(c.dir)
	}
	progress("%d boots: median set-up %.3fs", len(setups), median(append([]float64(nil), setups...)))
	err := b.drive(plain, bl)
	if err == nil {
		err = b.finish(plain)
	}
	plain.c.kill()
	if err != nil {
		return nil, err
	}
	e2e := b.endToEnd(plain, setups)
	b.report("untraced", plain, e2e)

	out := &output{Metrics: map[string]metric{}}
	addCounts(out, plain)
	out.Correct = allPassed(plain.checks)
	if !traced {
		for _, name := range endToEndNames {
			out.Metrics[name] = e2e[name]
		}
		return out, nil
	}

	tr, bl := newPass()
	c, err := b.boot("traced", true)
	if err != nil {
		return nil, err
	}
	tr.c = c
	err = b.drive(tr, bl)
	if err == nil {
		err = b.finish(tr)
	}
	c.term()
	if err != nil {
		return nil, err
	}
	trE2E := b.endToEnd(tr, []float64{c.setup})
	layers, err := b.layers(plain, tr, e2e, trE2E)
	if err != nil {
		return nil, err
	}
	b.report("traced", tr, trE2E)
	addCounts(out, tr)
	out.Correct = out.Correct && allPassed(tr.checks)
	out.Metrics = layers
	return out, nil
}

func addCounts(out *output, p *pass) {
	for _, oc := range p.cl.ops {
		out.Attempted += oc.attempted
		out.Failed += oc.failed
	}
}

// endToEndNames are the metrics every workload reports on its result
// line and BENCHMARK.json bounds: the ones steady enough from run to run
// to bound on a small shared box. The report lines above the result
// carry every other end-to-end metric (latencies, follower visibility,
// max_rate_rps, closed_rps), which there swing with the neighbours' load
// by more than the largest allowed bound.
var endToEndNames = []string{"setup_s", "cpu_ms_per_kreq", "leader_rss_mb", "coverage"}

// endToEnd computes every end-to-end metric of a pass: the bounded set
// plus the per-operation latencies at the nominal (middle) rung.
func (b *bench) endToEnd(p *pass, setups []float64) map[string]metric {
	m := map[string]metric{}
	m["setup_s"] = metric{median(append([]float64(nil), setups...)), "s"}
	nominal := p.rungs[1]
	for o := op(0); o < numOps; o++ {
		st := phaseOpStats(nominal.results, o)
		if st.n == 0 {
			continue
		}
		name := opNames[o]
		if o == opProbe {
			name = "follower_visible"
		}
		m[name+"_p50_ms"] = metric{st.p50, "ms"}
		m[name+"_p99_ms"] = metric{st.p99, "ms"}
		if opNames[o] == b.spec.Headline {
			m["headline_p50_ms"] = metric{st.p50, "ms"}
			m["headline_p99_ms"] = metric{st.p99, "ms"}
		}
	}
	var rungs []rung
	for _, r := range p.rungs {
		rungs = append(rungs, rungOf(r, b.spec))
	}
	m["max_rate_rps"] = metric{maxRate(rungs), "req/s"}
	m["closed_rps"] = metric{closedRate(p.closed), "req/s"}
	// CPU per request over the two rungs below saturation, which holds
	// several GC cycles of the largest registry.
	cpu, done := 0.0, 0
	for _, ph := range p.rungs[:2] {
		for _, v := range ph.cpu {
			cpu += v
		}
		for i := range ph.results {
			if ph.results[i].ok {
				done++
			}
		}
	}
	m["cpu_ms_per_kreq"] = metric{cpu * 1000 / (float64(done) / 1000), "ms"}
	m["leader_rss_mb"] = metric{p.end.rssMiB, "MiB"}
	m["coverage"] = metric{p.end.coverage, "ratio"}
	return m
}

// closedBin is the bin the closed loop's completion rate is counted in.
const closedBin = 500 * time.Millisecond

// closedRate is the median over the closed loop's whole bins of
// successful completions per second.
func closedRate(p *phase) float64 {
	bins := make([]float64, int((p.end-p.start)/closedBin))
	if len(bins) == 0 {
		return 0
	}
	for i := range p.results {
		r := &p.results[i]
		if b := int((r.done - p.start) / closedBin); r.ok && b < len(bins) {
			bins[b]++
		}
	}
	return median(bins) / closedBin.Seconds()
}

// report prints the human-readable lines: every metric that applies to
// the workload, the per-operation counts, the rung outcomes and checks.
func (b *bench) report(tag string, p *pass, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("== %s %s seed=%d\n", b.spec.Name, tag, b.seed)
	for _, n := range names {
		fmt.Printf("metric %s %s %.6g %s\n", b.spec.Name, n, m[n].Value, m[n].Unit)
	}
	nominal := p.rungs[1]
	for o := op(0); o < numOps; o++ {
		oc := p.cl.ops[o]
		if oc.attempted+oc.dropped == 0 {
			continue
		}
		st := phaseOpStats(nominal.results, o)
		fmt.Printf("op %s attempted=%d succeeded=%d failed=%d dropped=%d nominal_samples=%d tail_quantile=%.4f\n",
			opNames[o], oc.attempted, oc.succeeded, oc.failed, oc.dropped, st.n, st.q)
	}
	for _, r := range p.rungs {
		g := rungOf(r, b.spec)
		fmt.Printf("rung %s rate=%g headroom=%.3f throughput=%.1f saturated=%v\n", r.name, r.rate, g.headroom, g.throughput, g.saturated)
	}
	for _, c := range p.checks {
		status := "pass"
		if !c.ok {
			status = "FAIL"
			progress("%s check %s failed: %s", tag, c.name, c.detail)
		}
		fmt.Printf("check %s %s %s\n", c.name, status, c.detail)
	}
}

// sampleStreams picks up to n stream indices deterministically.
func sampleStreams(seed int64, total, n int) []int {
	idx := rand.New(rand.NewSource(seed)).Perm(total)
	if n < total {
		idx = idx[:n]
	}
	return idx
}
