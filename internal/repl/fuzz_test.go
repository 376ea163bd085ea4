package repl

import (
	"bytes"
	"testing"

	"repro/internal/wal"
)

// FuzzDecodeMessage feeds arbitrary bytes to the protocol decoder, which
// any peer that connects to a replication address reaches. Decoding must
// never panic, an accepted message must re-encode to exactly the bytes it
// came from, and a batch payload must survive the follower's frame
// decoder, whose accepted frames re-encode to the payload as well.
func FuzzDecodeMessage(f *testing.F) {
	frames := wal.EncodeFrames(nil, []wal.Record{
		{Seq: 1, Key: "normal", Wait: 12.5, UnixNanos: 99},
		{Seq: 2, Key: "high/65+", Wait: 0, UnixNanos: -1},
	})
	for _, m := range []message{
		{kind: msgHello, epoch: 3, arg: 42},
		{kind: msgBatch, epoch: 9, arg: 100, payload: frames},
		{kind: msgBatch, epoch: 9, arg: 100, payload: frames[:len(frames)-3]},
		{kind: msgHeartbeat, epoch: 2, arg: 55},
		{kind: msgAck, epoch: 2, arg: 54},
		{kind: msgReject, epoch: 8},
		{kind: msgSnapBegin, epoch: 1, arg: 7, payload: []byte(`{"by_procs":true,"next_seed":1,"shards":1,"streams":0}`)},
		{kind: msgSnapChunk, epoch: 1, arg: 0, payload: []byte{0, 0, 0, 0, '{', '}'}},
		{kind: msgSnapEnd, epoch: 1, arg: 7},
		{kind: msgSnapAck, epoch: 1, arg: 0},
		{kind: msgRetiredSnapshot, epoch: 1, arg: 7, payload: []byte("blob")},
	} {
		f.Add(encodeMessage(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{msgBatch, 1, 2, 3})

	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeMessage(b)
		if err != nil {
			return
		}
		if re := encodeMessage(nil, m); !bytes.Equal(re, b) {
			t.Fatalf("accepted message re-encodes to %x, want %x", re, b)
		}
		if m.kind != msgBatch {
			return
		}
		var dec wal.FrameDecoder
		recs, err := dec.Decode(m.payload)
		if err != nil {
			return
		}
		if re := wal.EncodeFrames(nil, recs); !bytes.Equal(re, m.payload) {
			t.Fatalf("accepted batch of %d records re-encodes to %x, want %x", len(recs), re, m.payload)
		}
	})
}
