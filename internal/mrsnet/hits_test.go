package mrsnet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// edgeBatch carries the extreme field values the codec must write and read
// exactly as encoding/json does.
var edgeBatch = []HitRec{
	{SID: "s1", Addr: math.MaxUint32, Size: -4, PC: -1, Instrs: math.MinInt64, Old: math.MaxUint32, New: math.MaxUint32},
	{SID: "s1", Addr: 0, Size: math.MaxInt32, Read: true, PC: math.MinInt32, Instrs: math.MaxInt64},
	{SID: "", Addr: 1, Size: math.MinInt32, PC: math.MaxInt32, Instrs: 0, New: 7},
	{SID: "p12-s345~\x7f", Addr: 0x7fff_fff0, Size: 4, PC: 1234, Instrs: 99_999_999, Old: 1},
}

// nonCanonicalHits are payloads the fast decoder must decline, one per
// departure from the canonical shape. Some are valid JSON that
// json.Unmarshal decodes, some are errors it must keep reporting.
var nonCanonicalHits = []string{
	`{"op":"resp","seq":3,"ok":true}`, // other op
	`{"op":"hits"}`,                   // no batch
	`{"op":"hits","hits":[]}`,         // empty batch
	`{"op":"hits","seq":1,"hits":[{"sid":"a","addr":1,"size":4,"pc":2,"instrs":3}]}`,                  // extra field
	`{"op":"hits", "hits":[{"sid":"a","addr":1,"size":4,"pc":2,"instrs":3}]}`,                         // whitespace
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4,"pc":2,"instrs":3}]} `,                         // trailing whitespace
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4,"pc":2,"instrs":3}]}x`,                         // trailing garbage
	`{"hits":[{"sid":"a","addr":1,"size":4,"pc":2,"instrs":3}],"op":"hits"}`,                          // reordered keys
	`{"op":"hits","hits":[{"addr":1,"sid":"a","size":4,"pc":2,"instrs":3}]}`,                          // reordered record keys
	`{"op":"hits","hits":[{"sid":"a","addr":1,"addr":2,"size":4,"pc":2,"instrs":3}]}`,                 // duplicate key
	`{"op":"hits","hits":[{"SID":"a","addr":1,"size":4,"pc":2,"instrs":3}]}`,                          // key case
	`{"op":"hits","hits":[{"sid":"\u0061","addr":1,"size":4,"pc":2,"instrs":3}]}`,                     // escape
	`{"op":"hits","hits":[{"sid":"\u003c","addr":1,"size":4,"pc":2,"instrs":3}]}`,                     // HTML escape
	"{\"op\":\"hits\",\"hits\":[{\"sid\":\"\xc3\xa9\",\"addr\":1,\"size\":4,\"pc\":2,\"instrs\":3}]}", // non-ASCII
	"{\"op\":\"hits\",\"hits\":[{\"sid\":\"\xff\",\"addr\":1,\"size\":4,\"pc\":2,\"instrs\":3}]}",     // invalid UTF-8
	"{\"op\":\"hits\",\"hits\":[{\"sid\":\"a\tb\",\"addr\":1,\"size\":4,\"pc\":2,\"instrs\":3}]}",     // control byte
	`{"op":"hits","hits":[{"sid":"a","addr":01,"size":4,"pc":2,"instrs":3}]}`,                         // leading zero
	`{"op":"hits","hits":[{"sid":"a","addr":4294967296,"size":4,"pc":2,"instrs":3}]}`,                 // uint32 overflow
	`{"op":"hits","hits":[{"sid":"a","addr":-1,"size":4,"pc":2,"instrs":3}]}`,                         // negative uint
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":2147483648,"pc":2,"instrs":3}]}`,                 // int32 overflow
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4,"pc":-2147483649,"instrs":3}]}`,                // int32 underflow
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4,"pc":2,"instrs":9223372036854775808}]}`,        // int64 overflow
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":-0,"pc":2,"instrs":3}]}`,                         // negative zero
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4.0,"pc":2,"instrs":3}]}`,                        // fraction
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4e0,"pc":2,"instrs":3}]}`,                        // exponent
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4,"read":false,"pc":2,"instrs":3}]}`,             // explicit false
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4,"pc":2,"instrs":3,"new":1,"old":2}]}`,          // old/new swapped
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4,"pc":2,"instrs":3,"x":1}]}`,                    // unknown key
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4,"pc":2,"instrs":3},]}`,                         // trailing comma
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4,"pc":2,"instrs":3}`,                            // truncated
	`{"op":"hits","hits":[{"sid":"a","addr":1,"size":4,"pc":2,"instrs":`,                              // truncated mid-record
	`{"op":"hits","hits":[{"sid":"a`,                                                                  // truncated SID
}

// marshalHits is the reference encoding of a hits frame.
func marshalHits(t testing.TB, batch []HitRec) []byte {
	p, err := json.Marshal(&Msg{Op: OpHits, Hits: batch})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkHitBatch is the encoder differential: the codec writes json.Marshal's
// bytes or declines on a SID that needs escaping, and what it writes decodes
// back to batch through both the codec and readMsg.
func checkHitBatch(t *testing.T, batch []HitRec) {
	t.Helper()
	want := marshalHits(t, batch)
	got, ok := appendHits(nil, batch)
	escaped := false
	for _, h := range batch {
		escaped = escaped || strings.ContainsAny(h.SID, "\"\\<>&") ||
			strings.IndexFunc(h.SID, func(r rune) bool { return r < 0x20 || r >= 0x80 }) >= 0
	}
	if !ok {
		if !escaped {
			t.Fatalf("encoder declined a batch with no SID to escape: %+v", batch)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder bytes differ from json.Marshal:\n got %s\nwant %s", got, want)
	}
	if len(batch) == 0 {
		return
	}
	dec, ok := decodeHits(got)
	if !ok || !reflect.DeepEqual(dec, batch) {
		t.Fatalf("canonical frame did not decode back (accepted %v):\n got %+v\nwant %+v", ok, dec, batch)
	}
	var buf bytes.Buffer
	if _, err := writeHits(&buf, nil, batch); err != nil {
		t.Fatal(err)
	}
	var m Msg
	if _, err := readMsg(&buf, nil, &m); err != nil || !reflect.DeepEqual(m, Msg{Op: OpHits, Hits: batch}) {
		t.Fatalf("writeHits/readMsg round trip: err %v\n got %+v\nwant %+v", err, m, batch)
	}
}

// checkHitPayload is the decoder differential: the codec either declines
// payload or decodes it to exactly what json.Unmarshal yields, and never
// accepts a payload json.Unmarshal rejects. readMsg, whichever path it
// takes, agrees with json.Unmarshal.
func checkHitPayload(t *testing.T, payload []byte) {
	t.Helper()
	var ref Msg
	refErr := json.Unmarshal(payload, &ref)
	if hits, ok := decodeHits(payload); ok {
		if refErr != nil {
			t.Fatalf("codec accepted a payload json.Unmarshal rejects (%v): %q", refErr, payload)
		}
		if got := (Msg{Op: OpHits, Hits: hits}); !reflect.DeepEqual(got, ref) {
			t.Fatalf("codec and json.Unmarshal disagree on %q:\n got %+v\nwant %+v", payload, got, ref)
		}
	}
	if len(payload) == 0 || len(payload) > MaxFrame {
		return
	}
	var m Msg
	_, err := readMsg(bytes.NewReader(frame(payload)), nil, &m)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("readMsg err %v, json.Unmarshal err %v on %q", err, refErr, payload)
	}
	if err == nil && !reflect.DeepEqual(m, ref) {
		t.Fatalf("readMsg and json.Unmarshal disagree on %q:\n got %+v\nwant %+v", payload, m, ref)
	}
}

// hitRecsBytes serializes a batch in the form batchFromBytes reads, so
// FuzzHitFrame can be seeded with chosen records.
func hitRecsBytes(batch []HitRec) []byte {
	var b []byte
	for _, h := range batch {
		b = append(b, byte(len(h.SID)))
		b = append(b, h.SID...)
		b = binary.LittleEndian.AppendUint32(b, h.Addr)
		b = binary.LittleEndian.AppendUint32(b, uint32(h.Size))
		var read byte
		if h.Read {
			read = 1
		}
		b = append(b, read)
		b = binary.LittleEndian.AppendUint32(b, uint32(h.PC))
		b = binary.LittleEndian.AppendUint64(b, uint64(h.Instrs))
		b = binary.LittleEndian.AppendUint32(b, h.Old)
		b = binary.LittleEndian.AppendUint32(b, h.New)
	}
	return b
}

// batchFromBytes reads the records hitRecsBytes writes; a short tail reads
// as zeros and a SID length past the end takes what is left.
func batchFromBytes(b []byte) []HitRec {
	take := func(n int) []byte {
		if n > len(b) {
			n = len(b)
		}
		v := make([]byte, 8)
		copy(v, b[:n])
		b = b[n:]
		return v
	}
	var batch []HitRec
	for len(b) > 0 && len(batch) < 256 {
		n := int(b[0])
		b = b[1:]
		if n > len(b) {
			n = len(b)
		}
		h := HitRec{SID: string(b[:n])}
		b = b[n:]
		h.Addr = binary.LittleEndian.Uint32(take(4))
		h.Size = int32(binary.LittleEndian.Uint32(take(4)))
		h.Read = take(1)[0]&1 != 0
		h.PC = int32(binary.LittleEndian.Uint32(take(4)))
		h.Instrs = int64(binary.LittleEndian.Uint64(take(8)))
		h.Old = binary.LittleEndian.Uint32(take(4))
		h.New = binary.LittleEndian.Uint32(take(4))
		batch = append(batch, h)
	}
	return batch
}

// FuzzHitFrame differentially checks the hit codec against encoding/json:
// recs is read as a batch of hit records for the encoder, payload is fed
// to the decoder as is.
func FuzzHitFrame(f *testing.F) {
	canonical := marshalHits(f, edgeBatch)
	f.Add(canonical, hitRecsBytes(edgeBatch))
	for _, sid := range []string{"", "<s>", `q"q`, `b\s`, "a&b", "\u00e9t\u00e9", "\u2028", "\xff", "\x01"} {
		batch := []HitRec{{SID: "s0", Addr: 4, Size: 4, PC: 8, Instrs: 16}, {SID: sid, Addr: 1, Size: 1}}
		f.Add(marshalHits(f, batch), hitRecsBytes(batch))
	}
	f.Add(canonical[:len(canonical)-1], []byte(nil))
	f.Add(canonical[:len(canonical)/2], []byte(nil))
	f.Add(append(canonical[:len(canonical):len(canonical)], "garbage"...), []byte(nil))
	for _, p := range nonCanonicalHits {
		f.Add([]byte(p), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, payload, recs []byte) {
		checkHitBatch(t, batchFromBytes(recs))
		checkHitPayload(t, payload)
	})
}

// TestDecodeHitsDeclines: every departure from the canonical shape goes to
// json.Unmarshal, which keeps deciding whether the payload is valid.
func TestDecodeHitsDeclines(t *testing.T) {
	for _, p := range nonCanonicalHits {
		if _, ok := decodeHits([]byte(p)); ok {
			t.Errorf("decodeHits accepted non-canonical %s", p)
		}
		checkHitPayload(t, []byte(p))
	}
}

// TestHitCodecRandomBatches runs the encoder and decoder differentials
// over seeded random batches shaped like daemon traffic: runs of one SID,
// occasional SIDs that need escaping, and extreme field values.
func TestHitCodecRandomBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sids := []string{"p1-s0", "p1-s1", "warm-nasker", "", "x<y", `"q"`, "t\u00e9", "tab\t"}
	u32 := []uint32{0, 1, 4, 0x2000_0000, 0x7fff_fffc, math.MaxUint32}
	i64 := []int64{0, 1, -1, 1 << 40, math.MaxInt64, math.MinInt64}
	for iter := 0; iter < 500; iter++ {
		batch := make([]HitRec, 1+rng.Intn(128))
		plainOnly := rng.Intn(4) != 0
		sid := sids[0]
		for i := range batch {
			if rng.Intn(8) == 0 {
				sid = sids[rng.Intn(3)]
				if !plainOnly {
					sid = sids[rng.Intn(len(sids))]
				}
			}
			h := HitRec{
				SID:    sid,
				Addr:   u32[rng.Intn(len(u32))] ^ uint32(rng.Intn(64)),
				Size:   int32(i64[rng.Intn(len(i64))]) + int32(rng.Intn(9)) - 4,
				Read:   rng.Intn(2) == 0,
				PC:     int32(rng.Uint32()),
				Instrs: i64[rng.Intn(len(i64))] + rng.Int63n(1000) - 500,
			}
			if rng.Intn(2) == 0 {
				h.Old, h.New = u32[rng.Intn(len(u32))], u32[rng.Intn(len(u32))]
			}
			batch[i] = h
		}
		checkHitBatch(t, batch)
		checkHitPayload(t, marshalHits(t, batch))
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestOneWritePerFrame: every frame, control or hits, codec or fallback,
// reaches the connection in a single Write.
func TestOneWritePerFrame(t *testing.T) {
	cases := map[string]func(w *countingWriter) error{
		"WriteFrame": func(w *countingWriter) error { return WriteFrame(w, []byte(`{"op":"hello"}`)) },
		"writeMsg":   func(w *countingWriter) error { return writeMsg(w, &Msg{Op: OpResp, Seq: 1, OK: true}) },
		"hits codec": func(w *countingWriter) error {
			_, err := writeHits(w, nil, edgeBatch)
			return err
		},
		"hits fallback": func(w *countingWriter) error {
			_, err := writeHits(w, nil, []HitRec{{SID: "<escaped>"}})
			return err
		},
	}
	for name, write := range cases {
		var w countingWriter
		if err := write(&w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.writes != 1 {
			t.Errorf("%s: %d writes for one frame", name, w.writes)
		}
		if _, err := ReadFrame(&w.Buffer, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// benchBatch is one full daemon batch: 64 hits of one session, half of
// them transition hits carrying old/new values.
func benchBatch() []HitRec {
	batch := make([]HitRec, 64)
	for i := range batch {
		batch[i] = HitRec{SID: "p1-s123", Addr: 0x7fff_fe9c, Size: 4, PC: 4096 + int32(i%7)*4, Instrs: 1_500_000 + int64(i)*37}
		if i%2 == 1 {
			batch[i].Old, batch[i].New = uint32(i), uint32(i+1)
		}
	}
	return batch
}

var sinkBytes []byte
var sinkHits []HitRec

// BenchmarkHitFrame encodes and decodes one 64-hit batch with
// encoding/json and with the hit codec.
func BenchmarkHitFrame(b *testing.B) {
	batch := benchBatch()
	payload := marshalHits(b, batch)
	b.Run("encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes, _ = json.Marshal(&Msg{Op: OpHits, Hits: batch})
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf, _ = appendHits(buf[:0], batch)
		}
		sinkBytes = buf
	})
	b.Run("decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var m Msg
			if err := json.Unmarshal(payload, &m); err != nil {
				b.Fatal(err)
			}
			sinkHits = m.Hits
		}
	})
	b.Run("decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hits, ok := decodeHits(payload)
			if !ok {
				b.Fatal("codec declined a canonical frame")
			}
			sinkHits = hits
		}
	})
}
