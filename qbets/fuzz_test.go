package qbets

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/wal"
)

// decodeObservePayload mirrors the handler's parse: first JSON value only
// (trailing bytes ignored), array or single record.
func decodeObservePayload(data []byte) (records []ObserveRecord, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, false
	}
	if len(raw) > 0 && raw[0] == '[' {
		if err := json.Unmarshal(raw, &records); err != nil {
			return nil, false
		}
		return records, true
	}
	var one ObserveRecord
	if err := json.Unmarshal(raw, &one); err != nil {
		return nil, false
	}
	return []ObserveRecord{one}, true
}

// FuzzObserveRecord hardens the observe ingestion path: arbitrary bytes
// must never panic the handler, anything the JSON layer accepts must
// round-trip losslessly, and the handler must answer every payload with
// either 204 (ingested) or 400 (rejected, with a JSON error body).
func FuzzObserveRecord(f *testing.F) {
	// Well-formed singles and batches.
	f.Add([]byte(`{"queue":"normal","procs":8,"wait_seconds":123}`))
	f.Add([]byte(`[{"queue":"normal","procs":8,"wait_seconds":123},{"queue":"high","procs":1,"wait_seconds":0}]`))
	f.Add([]byte(`{"queue":"q","procs":0,"wait_seconds":0.5}`))
	f.Add([]byte(`{"queue":"üñïçø∂é","procs":2147483647,"wait_seconds":1e300}`))
	// Hostile shapes.
	f.Add([]byte(`{bad json`))
	f.Add([]byte(`[`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte(`{"queue":"","wait_seconds":1}`))
	f.Add([]byte(`{"queue":"q","wait_seconds":-1}`))
	f.Add([]byte(`{"queue":"q","procs":-5,"wait_seconds":1}`))
	f.Add([]byte(`[{"queue":"a","wait_seconds":1},{"queue":"","wait_seconds":2}]`))
	f.Add([]byte(`{"queue":"q","wait_seconds":1e999}`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte("[{\"queue\":\"q\",\"wait_seconds\":1}]\n{\"queue\":\"r\"}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		// JSON-layer property: an accepted record re-encodes and decodes
		// to itself (valid JSON cannot smuggle NaN/Inf into the floats).
		var rec ObserveRecord
		if err := json.Unmarshal(data, &rec); err == nil {
			out, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("accepted record %+v does not re-marshal: %v", rec, err)
			}
			var back ObserveRecord
			if err := json.Unmarshal(out, &back); err != nil {
				t.Fatalf("re-marshaled record rejected: %v", err)
			}
			if !reflect.DeepEqual(rec, back) {
				t.Fatalf("round trip changed record: %+v vs %+v", rec, back)
			}
		}

		// Differential oracle for the handler contract: the payload is the
		// first JSON value in the body — an array of records or a single
		// record — and it is ingested iff it fits the body cap and every
		// record has a queue and a finite non-negative wait (JSON cannot
		// encode NaN or Inf, so the finiteness check is unreachable here but
		// the cap is not). Anything else earns a 400 with a JSON error.
		records, parses := decodeObservePayload(data)
		valid := parses && len(data) <= maxObserveBody
		for _, rec := range records {
			if rec.Queue == "" || rec.WaitSeconds < 0 {
				valid = false
				break
			}
		}

		srv := NewServer(true, WithSeed(1))
		req := httptest.NewRequest(http.MethodPost, "/v1/observe", strings.NewReader(string(data)))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		switch {
		case valid:
			if w.Code != http.StatusNoContent {
				t.Fatalf("valid payload %q got status %d: %s", data, w.Code, w.Body.String())
			}
			if len(records) > 0 && srv.Service().NumStreams() == 0 {
				t.Fatalf("204 with no streams for %q", data)
			}
		default:
			if w.Code != http.StatusBadRequest {
				t.Fatalf("invalid payload %q got status %d", data, w.Code)
			}
			var er ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("400 without JSON error body for %q: %s", data, w.Body.String())
			}
		}
	})
}

// FuzzSnapshotInstall feeds arbitrary header and chunk bytes through the
// follower's chunked install (Begin / ApplyChunk / Commit), the code every
// catch-up and every state-directory load runs. It must never panic. Any
// refusal must leave the serving state as it was: stream count, applied
// sequence and a sampled forecast. A commit must install exactly the
// streams the chunks delivered, at the covered sequence.
func FuzzSnapshotInstall(f *testing.F) {
	leader := NewService(false, WithSeed(2))
	for i := 0; i < 90; i++ {
		leader.Observe([]string{"a", "b", "c"}[i%3], 0, float64(1+i%17))
	}
	leader.SetSnapshotChunkStreams(2)
	ss, err := leader.OpenReplicaSnapshotStream()
	if err != nil {
		f.Fatal(err)
	}
	c0, _ := ss.AppendChunk(0, nil)
	c1, _ := ss.AppendChunk(1, nil)
	f.Add(uint64(90), ss.Header(), c0, c1)
	f.Add(uint64(90), ss.Header(), c0, []byte(nil))
	f.Add(uint64(90), ss.Header(), c1, c0)
	f.Add(uint64(3), []byte(`{"by_procs":true,"next_seed":1,"shards":1,"streams":0}`), []byte("{}"), []byte(nil))
	f.Add(uint64(3), []byte(`{"shards":0}`), []byte("{}"), []byte(nil))
	f.Add(uint64(3), []byte(`{"shards":1,"streams":1}`), []byte(`{"x":{"state":"AAAA","bound":-1,"observations":-5}}`), []byte(nil))
	f.Add(uint64(3), []byte(`{"shards":1,"streams":0}`), []byte("null"), []byte(nil))
	f.Add(uint64(0), []byte("not json"), []byte("torn"), []byte("{"))

	f.Fuzz(func(t *testing.T, covered uint64, header, chunk0, chunk1 []byte) {
		svc := NewService(false, WithSeed(1))
		svc.SetFollower(true)
		recs := make([]wal.Record, 80)
		for i := range recs {
			recs[i] = wal.Record{Seq: uint64(i + 1), Key: "normal", Wait: float64(1 + i%23), UnixNanos: 1}
		}
		if err := svc.ApplyReplicated(0, recs); err != nil {
			t.Fatal(err)
		}
		preN, preSeq := svc.NumStreams(), svc.ReplicaAppliedSeq()
		preB, preOK := svc.Forecast("normal", 0)
		unchanged := func(stage string, err error) {
			t.Helper()
			if n := svc.NumStreams(); n != preN {
				t.Fatalf("%s refused (%v) but streams went %d -> %d", stage, err, preN, n)
			}
			if seq := svc.ReplicaAppliedSeq(); seq != preSeq {
				t.Fatalf("%s refused (%v) but the applied seq went %d -> %d", stage, err, preSeq, seq)
			}
			if b, ok := svc.Forecast("normal", 0); b != preB || ok != preOK {
				t.Fatalf("%s refused (%v) but the forecast went (%v,%v) -> (%v,%v)", stage, err, preB, preOK, b, ok)
			}
		}

		if err := svc.BeginReplicaSnapshot(covered, header); err != nil {
			unchanged("begin", err)
			return
		}
		chunks := [][]byte{chunk0}
		if len(chunk1) > 0 {
			chunks = append(chunks, chunk1)
		}
		delivered := make(map[string]bool)
		for i, c := range chunks {
			if err := svc.ApplyReplicaSnapshotChunk(i, c); err != nil {
				svc.AbortReplicaSnapshot()
				unchanged("chunk", err)
				return
			}
			var m map[string]json.RawMessage
			if err := json.Unmarshal(c, &m); err != nil {
				t.Fatalf("chunk %d applied but does not parse: %v", i, err)
			}
			for k := range m {
				delivered[k] = true
			}
		}
		if err := svc.CommitReplicaSnapshot(covered); err != nil {
			unchanged("commit", err)
			return
		}
		if n := svc.NumStreams(); n != len(delivered) {
			t.Fatalf("commit installed %d streams, %d delivered", n, len(delivered))
		}
		for k := range svc.snapshotStreams() {
			if !delivered[k] {
				t.Fatalf("commit installed stream %q that no chunk delivered", k)
			}
		}
		if seq := svc.ReplicaAppliedSeq(); seq != covered {
			t.Fatalf("applied seq %d after committing a snapshot covering %d", seq, covered)
		}
		svc.Stats()
		svc.Queues()
	})
}
