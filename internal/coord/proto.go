// Package coord implements multi-process campaign orchestration: a
// coordinator that partitions a campaign's scenario index space into
// shard-aligned ranges and farms them out to worker processes over a
// line-delimited JSON protocol — the stdin/stdout of locally spawned
// workers, or TCP connections for remote ones — then merges the
// returned per-shard sketch states into the same Summary the
// single-process path produces, bit-identical for the same (seed,
// Shards) whatever the worker count or range assignment.
//
// The system that simulates failure recovery survives its own workers
// dying: workers heartbeat to prove they are alive, a silent or
// disconnected worker is declared lost and its in-flight range is
// reassigned to a surviving worker (bounded retries), and a scenario
// error anywhere fails the whole campaign fast across the process
// boundary. One goroutine owns a job's state: RunJob's loop receives
// every worker's frames on one channel, credits a result only to the
// range its worker is running, and ends the job as soon as the stop
// rule fires, cancelling the ranges in flight past the stopped prefix.
package coord

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/campaign"
)

// ProtoVersion is the wire protocol version. A worker opens with a
// hello carrying its version; the coordinator drops connections whose
// version does not match.
const ProtoVersion = 1

// Message types. Coordinator to worker: job (the campaign WireSpec),
// assign (one scenario range), cancel, shutdown. Worker to
// coordinator: hello (version handshake), heartbeat (liveness only),
// result (the range and the serialised shard states of a completed
// range), error (fail-fast propagation).
const (
	msgHello     = "hello"
	msgJob       = "job"
	msgAssign    = "assign"
	msgResult    = "result"
	msgError     = "error"
	msgHeartbeat = "heartbeat"
	msgCancel    = "cancel"
	msgShutdown  = "shutdown"
)

// message is one protocol frame: a JSON object per line. Fields are
// populated per Type; Job tags every job-scoped message so stale
// frames from a superseded job are dropped instead of corrupting the
// current one.
type message struct {
	Type    string                `json:"type"`
	Version int                   `json:"version,omitempty"`
	Job     int                   `json:"job,omitempty"`
	Spec    *campaign.WireSpec    `json:"spec,omitempty"`
	Range   *campaign.Range       `json:"range,omitempty"`
	States  []campaign.ShardState `json:"states,omitempty"`
	Error   string                `json:"error,omitempty"`
}

// maxFrameLen bounds one protocol frame. The largest legitimate frame
// is a result carrying the serialised shard states of one range —
// megabytes at most; the cap is what keeps a malformed or hostile peer
// from making the reader buffer an endless unterminated line. Frames
// are rejected at the framing layer, before any JSON decoding.
const maxFrameLen = 64 << 20

// conn frames messages as newline-delimited JSON over a byte stream.
// Sends are serialised by a mutex (the worker's heartbeat goroutine
// writes concurrently with result sends); receives have a single
// reader by construction. Each received line is length-capped and then
// parsed by decodeFrame.
type conn struct {
	mu sync.Mutex
	w  io.Writer
	br *bufio.Reader
}

func newConn(r io.Reader, w io.Writer) *conn {
	return &conn{w: w, br: bufio.NewReaderSize(r, 64<<10)}
}

func (c *conn) send(m *message) error {
	buf, err := encodeFrame(m)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	//ppalint:allow lockheld the lock exists to serialise whole-frame writes; senders expect to block
	_, err = c.w.Write(buf)
	return err
}

func (c *conn) recv() (*message, error) {
	line, err := c.readFrame()
	if err != nil {
		return nil, err
	}
	return decodeFrame(line)
}

// readFrame reads one newline-terminated frame, failing as soon as the
// accumulated line exceeds maxFrameLen instead of buffering without
// bound.
func (c *conn) readFrame() ([]byte, error) {
	var buf []byte
	for {
		chunk, err := c.br.ReadSlice('\n')
		if len(buf)+len(chunk) > maxFrameLen {
			return nil, fmt.Errorf("coord: frame exceeds %d bytes", maxFrameLen)
		}
		buf = append(buf, chunk...) // ReadSlice's buffer is only valid until the next read
		switch err {
		case nil:
			return buf, nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(buf) > 0 {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, io.EOF
		default:
			return nil, err
		}
	}
}

// encodeFrame renders one message as a newline-terminated JSON frame.
func encodeFrame(m *message) ([]byte, error) {
	buf, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// decodeFrame parses one length-capped frame into a message. It
// rejects oversized input, malformed JSON, frames with no type, and
// trailing data after the object — a frame is one JSON object and
// nothing else.
func decodeFrame(line []byte) (*message, error) {
	if len(line) > maxFrameLen {
		return nil, fmt.Errorf("coord: frame exceeds %d bytes", maxFrameLen)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	var m message
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("coord: bad frame: %w", err)
	}
	if dec.More() {
		return nil, errors.New("coord: trailing data after frame")
	}
	if m.Type == "" {
		return nil, errors.New("coord: frame missing type")
	}
	return &m, nil
}
