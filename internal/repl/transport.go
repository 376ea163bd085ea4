// Package repl implements streaming WAL replication for the forecast
// service: a leader ships CRC-framed WAL record batches over a
// length-prefixed message protocol to N followers, which replay them
// through the service's grouped apply path and serve the lock-free read
// plane — follower reads are consistent-prefix by construction, because a
// follower only ever holds a prefix of the leader's acked log.
//
// The robustness envelope:
//
//   - snapshot catch-up: a new or lagging follower whose cursor fell off
//     the leader's compacted log receives a full state snapshot (header
//     plus chunks, the state-directory format) and resumes tailing from
//     its covered sequence;
//   - epoch fencing: every message carries the sender's epoch; a leader
//     that learns of a higher epoch is deposed and can never ack again —
//     the fence is checked before the ack watermark, mirroring the WAL
//     group commit's failed-segment-before-watermark guard;
//   - lease-shaped commits: in synchronous mode an observe acks only once
//     a follower acknowledged the records within the commit timeout, so a
//     partitioned leader cannot ack at all;
//   - follower reconnect with capped exponential backoff plus jitter, and
//     a heartbeat watchdog that severs silent connections.
//
// Faults are injected below this package: MemTransport partitions,
// severs, delays, and reorders messages, and the WAL's MemFS power-cuts
// the log, so internal/crashprop can drive whole-topology trials.
package repl

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
)

// Conn is a bidirectional, message-oriented connection. Send and Recv are
// whole-message: the transport preserves message boundaries and verifies
// integrity. Safe for one concurrent sender and one concurrent receiver;
// Close unblocks both ends.
type Conn interface {
	Send(msg []byte) error
	Recv() ([]byte, error)
	Close() error
}

// Listener accepts inbound connections from followers.
type Listener interface {
	Accept() (Conn, error)
	Close() error
}

// Transport produces connections: TCP in production, MemTransport under
// fault injection.
type Transport interface {
	Dial(addr string) (Conn, error)
	Listen(addr string) (Listener, error)
}

// Frame layout on a TCP conn, little-endian:
//
//	u32 payload length
//	u32 CRC32C (Castagnoli) of the payload
//	payload (one protocol message)
//
// The same checksum family as WAL record frames: a flipped bit anywhere
// between the leader's log and the follower's apply path is detected
// either here or by the per-record CRC inside a shipped batch.
const tcpFrameHeader = 8

// maxMessageBytes bounds a single message. Snapshot chunks dominate: a
// chunk of large streams must fit, so the cap is generous; anything larger
// is a protocol violation, not a bigger buffer.
const maxMessageBytes = 512 << 20

var tcpCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// TCP is the production transport.
type TCP struct{}

func (TCP) Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (TCP) Listen(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{ln: ln}, nil
}

type tcpListener struct{ ln net.Listener }

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

func (l *tcpListener) Close() error { return l.ln.Close() }

// Addr returns the bound address — useful when listening on ":0".
func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

type tcpConn struct {
	c net.Conn

	sendMu  sync.Mutex
	sendBuf []byte

	recvMu  sync.Mutex
	recvBuf []byte
}

func newTCPConn(c net.Conn) *tcpConn { return &tcpConn{c: c} }

func (t *tcpConn) Send(msg []byte) error {
	if len(msg) > maxMessageBytes {
		return fmt.Errorf("repl: message of %d bytes exceeds limit", len(msg))
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	buf := t.sendBuf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(msg, tcpCastagnoli))
	buf = append(buf, msg...)
	t.sendBuf = buf[:0]
	_, err := t.c.Write(buf)
	return err
}

func (t *tcpConn) Recv() ([]byte, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	var hdr [tcpFrameHeader]byte
	if _, err := io.ReadFull(t.c, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxMessageBytes {
		return nil, fmt.Errorf("repl: frame of %d bytes exceeds limit", n)
	}
	if cap(t.recvBuf) < n {
		t.recvBuf = make([]byte, n)
	}
	msg := t.recvBuf[:n]
	if _, err := io.ReadFull(t.c, msg); err != nil {
		return nil, err
	}
	if crc32.Checksum(msg, tcpCastagnoli) != crc {
		return nil, fmt.Errorf("repl: frame checksum mismatch")
	}
	// Hand out a copy: the caller may hold the message across the next
	// Recv, which reuses the buffer.
	return append([]byte(nil), msg...), nil
}

func (t *tcpConn) Close() error { return t.c.Close() }
