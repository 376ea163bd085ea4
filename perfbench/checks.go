package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/qbets"
)

// coverageTolerance is how far the pooled lifetime hit rate may sit below
// the target quantile before the run counts as incorrect: the paper's
// criterion is a hit rate at or above q, and short synthetic histories
// of heavy-tailed, shifting waits miss a little more often.
const coverageTolerance = 0.03

type streamStatus struct {
	observations int
	trims        int
	hits         uint64
	resolved     uint64
}

type checkResult struct {
	name   string
	ok     bool
	detail string
}

func allPassed(cs []checkResult) bool {
	for _, c := range cs {
		if !c.ok {
			return false
		}
	}
	return len(cs) > 0
}

func fetchStatus(c *http.Client, n *node) (map[string]streamStatus, error) {
	resp, err := c.Get(n.base + "/v1/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /v1/status: %s", n.name, resp.Status)
	}
	var st qbets.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("%s /v1/status: %v", n.name, err)
	}
	out := make(map[string]streamStatus, len(st.Streams))
	for _, s := range st.Streams {
		out[s.Stream] = streamStatus{observations: s.Observations, trims: s.Trims, hits: s.LifetimeHits, resolved: s.LifetimeResolved}
	}
	return out, nil
}

// batchEntries posts one batch forecast and returns its raw entries.
func batchEntries(c *http.Client, n *node, ss []*stream) ([]json.RawMessage, error) {
	resp, err := c.Post(n.base+"/v1/forecast", "application/json", bytes.NewReader(shapesBody(ss)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s batch forecast: %s", n.name, resp.Status)
	}
	var out []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if len(out) != len(ss) {
		return nil, fmt.Errorf("%s batch forecast: %d entries for %d shapes", n.name, len(out), len(ss))
	}
	return out, nil
}

func singleGet(c *http.Client, n *node, s *stream) ([]byte, error) {
	resp, err := c.Get(n.base + forecastPath(s))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s GET %s: %s", n.name, s.key, resp.Status)
	}
	return bytes.TrimSpace(body), nil
}

// singleGetSample is how many streams per node are compared by single
// GET against their batch entry; every stream is compared by batch.
const singleGetSample = 400

// finish waits for quiescence (the follower at lag 0 past every record
// the leader appended), then runs the output checks and reads the end
// state. A check that fails marks the run incorrect; it is not an error.
func (b *bench) finish(p *pass) error {
	lm, err := p.c.leader.metrics(monitor)
	if err != nil {
		return err
	}
	if f := p.c.follower; f != nil {
		if err := waitFor(f, 60*time.Second, "quiescence", func() bool { return quiesced(monitor, p.c.leader, f, b.spec.WALTailRecords) }); err != nil {
			return err
		}
	}
	if lm, err = p.c.leader.metrics(monitor); err != nil {
		return err
	}
	status, err := fetchStatus(monitor, p.c.leader)
	if err != nil {
		return err
	}
	p.end = endState{leaderM: lm, rssMiB: p.c.leader.peakRSSMiB()}
	add := func(name string, ok bool, format string, args ...any) {
		p.checks = append(p.checks, checkResult{name, ok, fmt.Sprintf(format, args...)})
	}

	// 1. Every acked observe is counted: globally exactly (the leader's
	// ingest counter), and per stream exactly wherever no change-point
	// trim shortened the history during the run.
	cl := p.cl
	var acked, failedRecs int64
	for _, a := range cl.acked {
		acked += a
	}
	failedRecs = int64(cl.ops[opObserve].failed) * observeBatchRecords
	ingested := int64(lm["qbets_observations_total"] - p.metrics0["qbets_observations_total"])
	add("acked_observes_counted", ingested >= acked && ingested <= acked+failedRecs,
		"leader ingested %d records, client saw %d acked (+%d unacked)", ingested, acked, failedRecs)
	all := append(append([]*stream(nil), b.in.streams...), b.in.probe)
	bad, exact := 0, 0
	for i, s := range all {
		st0, st1 := p.status0[s.key], status[s.key]
		want := st0.observations + int(cl.acked[i])
		switch {
		case st1.trims == st0.trims:
			exact++
			if st1.observations != want && cl.ops[opObserve].failed == 0 {
				bad++
			}
		case st1.observations > want:
			bad++
		}
	}
	add("per_stream_observations", bad == 0, "%d of %d streams off (%d checked exactly, the rest trimmed)", bad, len(all), exact)

	// 2–3. Leader and follower answer every stream identically, and each
	// batch entry equals the single GET for that stream.
	nodes := p.c.nodes()
	entries := make([][]json.RawMessage, len(nodes))
	for ni, n := range nodes {
		for lo := 0; lo < len(all); lo += 2000 {
			hi := min(lo+2000, len(all))
			e, err := batchEntries(monitor, n, all[lo:hi])
			if err != nil {
				return err
			}
			entries[ni] = append(entries[ni], e...)
		}
	}
	if len(nodes) > 1 {
		diff := 0
		for i := range all {
			if !bytes.Equal(entries[0][i], entries[1][i]) {
				diff++
			}
		}
		add("leader_follower_identical", diff == 0, "%d of %d streams differ between leader and follower", diff, len(all))
	}
	mismatch := 0
	sample := sampleStreams(b.seed, len(all), singleGetSample)
	for ni, n := range nodes {
		for _, i := range sample {
			body, err := singleGet(monitor, n, all[i])
			if err != nil {
				return err
			}
			if !bytes.Equal(body, entries[ni][i]) {
				mismatch++
			}
		}
	}
	add("batch_equals_single_get", mismatch == 0, "%d of %d sampled single GETs differ from their batch entry", mismatch, len(sample)*len(nodes))

	// 4. Whatif answers for the same (request, generation) are identical.
	if cl.ops[opWhatif].attempted > 0 {
		add("whatif_repeatable", cl.whatifErr == 0, "%d whatif responses differ from an earlier one for the same request and generation (%d distinct) %s", cl.whatifErr, len(cl.whatif), cl.whatifDiff)
	}

	// 5. Coverage: the pooled lifetime hit rate of every stream's bounds.
	var hits, resolved uint64
	for _, s := range status {
		hits += s.hits
		resolved += s.resolved
	}
	if resolved > 0 {
		p.end.coverage = float64(hits) / float64(resolved)
	}
	q := 0.95
	add("coverage", p.end.coverage >= q-coverageTolerance, "pooled hit rate %.4f over %d resolved bounds (target %.2f - %.2f)", p.end.coverage, resolved, q, coverageTolerance)
	return nil
}
