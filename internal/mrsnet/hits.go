package mrsnet

import (
	"bytes"
	"strconv"
)

// The OpHits codec. Hit frames are the one high-volume message, so they
// bypass reflection in both directions while keeping the wire format: the
// encoder emits exactly the bytes json.Marshal(&Msg{Op: OpHits, Hits: b})
// emits, and the decoder accepts only that canonical shape and declines
// everything else, leaving it to json.Unmarshal. encoding/json therefore
// stays the reference for which payloads are valid and what they mean.

// hitsPrefix and hitsSuffix bracket a canonical hits frame: op first, then
// the batch, every other Msg field omitted as empty.
const (
	hitsPrefix = `{"op":"hits","hits":[`
	hitsSuffix = `]}`
)

// minHitRecLen is the shortest canonical record,
// {"sid":"","addr":0,"size":0,"pc":0,"instrs":0}; it bounds how many
// records a payload can hold.
const minHitRecLen = 46

// sidNeedsEscape reports whether encoding/json would write sid other than
// verbatim: control bytes, quote and backslash, its HTML escapes for <, >
// and &, and every non-ASCII byte (U+2028/U+2029 and invalid UTF-8 are
// rewritten, so any byte >= 0x80 sends the frame to json.Marshal).
func sidNeedsEscape(sid string) bool {
	for i := 0; i < len(sid); i++ {
		switch c := sid[i]; {
		case c < 0x20, c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return true
		}
	}
	return false
}

// appendHits appends the canonical encoding of an OpHits frame carrying
// batch to dst. It reports false, with dst's contents past its original
// length unspecified, when a SID needs escaping; the caller then encodes
// the frame with json.Marshal.
func appendHits(dst []byte, batch []HitRec) ([]byte, bool) {
	if len(batch) == 0 {
		return append(dst, `{"op":"hits"}`...), true
	}
	dst = append(dst, hitsPrefix...)
	for i := range batch {
		h := &batch[i]
		if (i == 0 || h.SID != batch[i-1].SID) && sidNeedsEscape(h.SID) {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"sid":"`...)
		dst = append(dst, h.SID...)
		dst = append(dst, `","addr":`...)
		dst = strconv.AppendUint(dst, uint64(h.Addr), 10)
		dst = append(dst, `,"size":`...)
		dst = strconv.AppendInt(dst, int64(h.Size), 10)
		if h.Read {
			dst = append(dst, `,"read":true`...)
		}
		dst = append(dst, `,"pc":`...)
		dst = strconv.AppendInt(dst, int64(h.PC), 10)
		dst = append(dst, `,"instrs":`...)
		dst = strconv.AppendInt(dst, h.Instrs, 10)
		if h.Old != 0 {
			dst = append(dst, `,"old":`...)
			dst = strconv.AppendUint(dst, uint64(h.Old), 10)
		}
		if h.New != 0 {
			dst = append(dst, `,"new":`...)
			dst = strconv.AppendUint(dst, uint64(h.New), 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, hitsSuffix...), true
}

// decodeHits decodes p if it is a canonical OpHits frame — the exact shape
// appendHits writes, with no whitespace, escapes, reordered, duplicate or
// unknown keys, leading zeros, out-of-range integers or trailing bytes —
// and reports false for anything else. Whatever it accepts, json.Unmarshal
// accepts too and decodes to an equal Msg. A SID equal to the previous
// record's shares that record's string.
func decodeHits(p []byte) ([]HitRec, bool) {
	if !bytes.HasPrefix(p, []byte(hitsPrefix)) {
		return nil, false
	}
	n := bytes.Count(p, []byte{'{'}) - 1
	if lim := len(p)/minHitRecLen + 1; n > lim {
		n = lim
	}
	d := hitDecoder{p: p, i: len(hitsPrefix)}
	hits := make([]HitRec, 0, n)
	var prev string
	for {
		var h HitRec
		if !d.lit(`{"sid":"`) {
			return nil, false
		}
		sid, ok := d.sid()
		if !ok {
			return nil, false
		}
		if string(sid) != prev {
			prev = string(sid)
		}
		h.SID = prev
		if !d.lit(`","addr":`) {
			return nil, false
		}
		addr, ok := d.unsigned(1<<32 - 1)
		if !ok || !d.lit(`,"size":`) {
			return nil, false
		}
		size, ok := d.signed(1<<31 - 1)
		if !ok {
			return nil, false
		}
		h.Addr, h.Size = uint32(addr), int32(size)
		h.Read = d.lit(`,"read":true`)
		if !d.lit(`,"pc":`) {
			return nil, false
		}
		pc, ok := d.signed(1<<31 - 1)
		if !ok || !d.lit(`,"instrs":`) {
			return nil, false
		}
		h.PC = int32(pc)
		if h.Instrs, ok = d.signed(1<<63 - 1); !ok {
			return nil, false
		}
		if d.lit(`,"old":`) {
			v, ok := d.unsigned(1<<32 - 1)
			if !ok {
				return nil, false
			}
			h.Old = uint32(v)
		}
		if d.lit(`,"new":`) {
			v, ok := d.unsigned(1<<32 - 1)
			if !ok {
				return nil, false
			}
			h.New = uint32(v)
		}
		if !d.lit(`}`) {
			return nil, false
		}
		hits = append(hits, h)
		if d.lit(hitsSuffix) {
			return hits, d.i == len(p)
		}
		if !d.lit(`,`) {
			return nil, false
		}
	}
}

// hitDecoder is decodeHits' cursor over one payload.
type hitDecoder struct {
	p []byte
	i int
}

// lit consumes s if the input continues with it.
func (d *hitDecoder) lit(s string) bool {
	if len(d.p)-d.i < len(s) || string(d.p[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// sid consumes string bytes up to, not including, the closing quote. It
// fails on anything encoding/json would not take verbatim: an escape, a
// control byte, or a non-ASCII byte (invalid UTF-8 would be rewritten).
func (d *hitDecoder) sid() ([]byte, bool) {
	start := d.i
	for ; d.i < len(d.p); d.i++ {
		switch c := d.p[d.i]; {
		case c == '"':
			return d.p[start:d.i], true
		case c < 0x20, c >= 0x80, c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// unsigned consumes a JSON integer in [0, limit] written without sign or
// leading zeros.
func (d *hitDecoder) unsigned(limit uint64) (uint64, bool) {
	start := d.i
	var v uint64
	for ; d.i < len(d.p); d.i++ {
		c := d.p[d.i]
		if c < '0' || c > '9' {
			break
		}
		dig := uint64(c - '0')
		if v > (limit-dig)/10 {
			return 0, false
		}
		v = v*10 + dig
	}
	n := d.i - start
	if n == 0 || (n > 1 && d.p[start] == '0') {
		return 0, false
	}
	return v, true
}

// signed consumes a JSON integer in [-limit-1, limit] with no leading zeros
// and no negative zero.
func (d *hitDecoder) signed(limit uint64) (int64, bool) {
	if !d.lit(`-`) {
		v, ok := d.unsigned(limit)
		return int64(v), ok
	}
	v, ok := d.unsigned(limit + 1)
	if !ok || v == 0 {
		return 0, false
	}
	return int64(-v), true
}
