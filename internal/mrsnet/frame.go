// Package mrsnet is the wire layer of the mrsd session daemon: a
// length-prefixed JSON frame protocol carrying the monitored-region-service
// lifecycle (attach, region create/delete, run, patch, detach) plus the
// asynchronous, batched delivery of watchpoint hits back to the client.
//
// The transport is any net.Conn — TCP for the daemon proper, net.Pipe for
// in-process tests and the bench load generator's zero-network mode. Framing
// is deliberately dumb: a 4-byte big-endian payload length followed by one
// JSON object. Dumb framing is what makes the codec provable: ReadFrame can
// be fuzzed against arbitrary byte streams (truncated, oversized, garbage)
// and must return an error, never panic and never over-read.
//
// Hit batches, the one high-volume message, skip reflection: a hand-written
// codec (hits.go) writes OpHits frames byte-identical to encoding/json's,
// so old and new peers interoperate. Which path runs is decided by the
// input's shape, not by any setting. The decoder takes only the canonical
// hits shape and declines everything else to json.Unmarshal, which stays
// both the fallback and the reference for what a payload means; the
// encoder hands a batch to json.Marshal when any SID needs escaping. Control
// frames always use encoding/json.
package mrsnet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// MaxFrame bounds a frame payload. Large enough for a hit batch or a run
// result carrying a workload's full output; small enough that a hostile or
// corrupt length prefix cannot make the reader allocate unbounded memory.
const MaxFrame = 1 << 20

// frameHdrLen is the length prefix size.
const frameHdrLen = 4

// WriteFrame writes one frame: a 4-byte big-endian length then the payload,
// in a single Write. Payloads must be non-empty (a frame always carries a
// JSON object) and at most MaxFrame bytes.
func WriteFrame(w io.Writer, payload []byte) error {
	frame := make([]byte, frameHdrLen, frameHdrLen+len(payload))
	return writeFramed(w, append(frame, payload...))
}

// writeFramed fills in the length prefix of frame, whose first frameHdrLen
// bytes are reserved for it, and writes the whole frame with one Write: one
// net.Pipe hand-off or one TCP segment per frame, not two.
func writeFramed(w io.Writer, frame []byte) error {
	n := len(frame) - frameHdrLen
	if n == 0 {
		return fmt.Errorf("mrsnet: empty frame payload")
	}
	if n > MaxFrame {
		return fmt.Errorf("mrsnet: frame payload %d bytes exceeds MaxFrame %d", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(frame, uint32(n))
	_, err := w.Write(frame)
	return err
}

// ReadFrame reads one frame payload, reusing buf's capacity when possible.
// It returns io.EOF only on a clean boundary (no bytes read); a frame cut
// short mid-header or mid-payload is io.ErrUnexpectedEOF. Oversized and
// zero-length prefixes are errors before any payload byte is read.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // clean EOF stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("mrsnet: zero-length frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("mrsnet: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// writeMsg marshals m and writes it as one frame. Callers serialize writes
// per connection themselves.
func writeMsg(w io.Writer, m *Msg) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return WriteFrame(w, payload)
}

// writeHits writes one OpHits frame carrying batch, encoded in buf's storage
// by the hit codec, and returns the buffer for the next frame. A batch with
// a SID that needs escaping goes through writeMsg instead.
func writeHits(w io.Writer, buf []byte, batch []HitRec) ([]byte, error) {
	frame, ok := appendHits(append(buf[:0], make([]byte, frameHdrLen)...), batch)
	if !ok {
		return frame, writeMsg(w, &Msg{Op: OpHits, Hits: batch})
	}
	return frame, writeFramed(w, frame)
}

// readMsg reads one frame and decodes it into m (zeroed first): a canonical
// hits frame through the hit codec, anything else through json.Unmarshal.
// Garbage payloads — non-JSON bytes, wrong JSON shape — are errors, never
// panics.
func readMsg(r io.Reader, buf []byte, m *Msg) ([]byte, error) {
	buf, err := ReadFrame(r, buf)
	if err != nil {
		return buf, err
	}
	if hits, ok := decodeHits(buf); ok {
		*m = Msg{Op: OpHits, Hits: hits}
		return buf, nil
	}
	*m = Msg{}
	if err := json.Unmarshal(buf, m); err != nil {
		return buf, fmt.Errorf("mrsnet: bad frame payload: %w", err)
	}
	return buf, nil
}
