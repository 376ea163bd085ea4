package repl

import (
	"encoding/binary"
	"fmt"
)

// Protocol messages. Every message carries the sender's epoch — fencing
// is a property of the whole conversation, not a handshake — plus one
// kind-specific operand and an optional payload:
//
//	hello      follower → leader   arg = follower's applied sequence
//	batch      leader → follower   arg = prevSeq (the sequence this batch
//	                               extends), payload = CRC-framed WAL records
//	heartbeat  leader → follower   arg = leader's durability watermark
//	ack        follower → leader   arg = follower's applied sequence
//	reject     either direction    sender refuses the peer's epoch
//	snapBegin  leader → follower   arg = covered sequence, payload = header
//	snapChunk  leader → follower   arg = chunk index, payload = u32 CRC32C
//	                               (little-endian) followed by the chunk
//	snapEnd    leader → follower   arg = covered sequence
//	snapAck    follower → leader   arg = highest applied chunk index
//
// prevSeq is what makes a drop/reorder-capable transport safe: a follower
// accepts a batch only if it extends (or overlaps) its applied prefix;
// anything else forces a reconnect, and the hello renegotiates position.
//
// snapBegin/snapChunk/snapEnd stream a catch-up snapshot as bounded
// chunks, so leader memory during catch-up is O(chunk), not O(state). Chunks carry their own CRC (in addition to
// the transport frame's) and strictly increasing indices; a follower that
// sees a hole, a bad checksum, or a dropped end marker aborts the install
// and reconnects — the hello then re-requests the snapshot from scratch.
// snapAck drives the leader's chunk window the way ack drives the batch
// window: the leader keeps at most a window of unacknowledged chunks in
// flight per follower.
//
// Kind 2 carried a monolithic one-message snapshot in earlier builds. It
// stays reserved so the other kinds keep their wire values, and
// decodeMessage refuses it like any unknown kind.
const (
	msgHello byte = iota + 1
	msgRetiredSnapshot
	msgBatch
	msgHeartbeat
	msgAck
	msgReject
	msgSnapBegin
	msgSnapChunk
	msgSnapEnd
	msgSnapAck

	msgKindMax = msgSnapAck
)

const msgHeaderLen = 1 + 8 + 8

type message struct {
	kind    byte
	epoch   uint64
	arg     uint64
	payload []byte
}

func encodeMessage(buf []byte, m message) []byte {
	buf = append(buf, m.kind)
	buf = binary.LittleEndian.AppendUint64(buf, m.epoch)
	buf = binary.LittleEndian.AppendUint64(buf, m.arg)
	return append(buf, m.payload...)
}

func decodeMessage(b []byte) (message, error) {
	var m message
	if len(b) < msgHeaderLen {
		return m, fmt.Errorf("repl: message of %d bytes is shorter than the header", len(b))
	}
	m.kind = b[0]
	if m.kind < msgHello || m.kind > msgKindMax || m.kind == msgRetiredSnapshot {
		return m, fmt.Errorf("repl: unknown message kind %d", m.kind)
	}
	m.epoch = binary.LittleEndian.Uint64(b[1:9])
	m.arg = binary.LittleEndian.Uint64(b[9:17])
	m.payload = b[msgHeaderLen:]
	return m, nil
}
