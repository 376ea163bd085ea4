package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestDueTimeLatency drives an open-loop schedule through one worker
// against a server that takes 20ms per request: requests all due at once
// queue behind each other, and each one's latency must count that wait
// from its due time, not just its own round trip.
func TestDueTimeLatency(t *testing.T) {
	const service = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	spec := &workloadSpec{}
	in := &inputs{streams: []*stream{{queue: "q", procs: 1, waits: []float64{1}}}}
	c := newClient(spec, in, []*node{{name: "fake", base: srv.URL}}, 1)
	p := &phase{name: "burst", open: true, dur: 100 * time.Millisecond}
	for i := 0; i < 5; i++ {
		p.reqs = append(p.reqs, request{op: opForecast, path: forecastPath(in.streams[0])})
	}
	c.runOpen(p)

	if len(p.results) != 5 {
		t.Fatalf("got %d results, want 5", len(p.results))
	}
	for i, r := range p.results {
		if !r.ok || r.dropped {
			t.Fatalf("request %d: ok=%v dropped=%v", i, r.ok, r.dropped)
		}
		// The i-th request waited for i earlier ones before its own.
		if min := time.Duration(i+1) * service; r.latency() < min {
			t.Errorf("request %d: latency %v, want at least %v", i, r.latency(), min)
		}
		if own := r.done - r.sent; own > 10*service {
			t.Errorf("request %d: round trip %v is implausibly long", i, own)
		}
		if late := r.sent - r.due; late < time.Duration(i)*service {
			t.Errorf("request %d: sent %v after due, want at least %v", i, late, time.Duration(i)*service)
		}
	}
	if c.ops[opForecast].attempted != 5 || c.ops[opForecast].succeeded != 5 {
		t.Errorf("counts = %+v, want 5 attempted and succeeded", c.ops[opForecast])
	}
}

// TestOverloadDrops checks that a schedule far beyond what the server
// can serve stops sending drainLimit after its end and counts the rest
// as dropped, at their censored latency.
func TestOverloadDrops(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	in := &inputs{streams: []*stream{{queue: "q", procs: 1, waits: []float64{1}}}}
	c := newClient(&workloadSpec{}, in, []*node{{name: "fake", base: srv.URL}}, 1)
	p := &phase{name: "overload", open: true, dur: 10 * time.Millisecond}
	for i := 0; i < 20; i++ {
		p.reqs = append(p.reqs, request{op: opForecast, path: forecastPath(in.streams[0])})
	}
	c.runOpen(p)
	oc := c.ops[opForecast]
	if oc.dropped == 0 || oc.attempted+oc.dropped != 20 {
		t.Fatalf("counts = %+v, want some dropped and 20 in all", oc)
	}
	r := rungOf(p, &workloadSpec{P99LimitMS: map[string]float64{"forecast": 50}})
	if !r.saturated || r.headroom <= 1 {
		t.Errorf("rung = %+v, want saturated and failing", r)
	}
}

// TestStreamsExtendWithoutRepeating reads a hot stream far past its first
// chunk: it must not wrap to values it already sent, and the same seed
// must give the same sequence however the reads are split.
func TestStreamsExtendWithoutRepeating(t *testing.T) {
	spec := &workloadSpec{Queues: 1}
	a := generateInputs(spec, 7).streams[0]
	b := generateInputs(spec, 7).streams[0]
	n := 5 * streamChunk
	var seqA []float64
	for i := 0; i < n; i++ {
		seqA = append(seqA, a.take())
	}
	for i := 0; i < n; i++ {
		if i == 3*streamChunk/2 {
			b.extend() // generating ahead must not change what is read
		}
		if w := b.take(); w != seqA[i] {
			t.Fatalf("wait %d: %v from one read, %v from another", i, seqA[i], w)
		}
	}
	for k := 1; k < 5; k++ {
		same := 0
		for i := 0; i < streamChunk; i++ {
			if seqA[k*streamChunk+i] == seqA[i] {
				same++
			}
		}
		if same == streamChunk {
			t.Fatalf("chunk %d repeats the first chunk", k)
		}
	}
}

// TestPassesReplaySchedule checks that rewinding the stream cursors and
// starting a fresh builder on the same seed reproduces an open-loop
// schedule byte for byte, as the traced pass relies on.
func TestPassesReplaySchedule(t *testing.T) {
	spec, err := loadSpec("serve-mixed")
	if err != nil {
		t.Fatal(err)
	}
	spec.Queues = 8
	in := generateInputs(spec, 3)
	for _, s := range in.streams {
		for i := 0; i < spec.PreloadPerStream; i++ {
			s.take()
		}
	}
	cursors := in.cursors()
	sched := func() []request {
		in.rewind(cursors)
		return newBuilder(spec, in, 11).schedule(spec.RatesRPS[1], time.Second)
	}
	first, second := sched(), sched()
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("schedules of %d and %d requests", len(first), len(second))
	}
	for i := range first {
		x, y := first[i], second[i]
		if x.op != y.op || x.due != y.due || x.path != y.path || string(x.body) != string(y.body) {
			t.Fatalf("request %d differs between passes", i)
		}
	}
}
