package mrsnet

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// FuzzFrameRoundTrip: any non-empty payload up to MaxFrame survives a
// write/read cycle byte-for-byte; oversized payloads are write errors.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(`{"op":"hello"}`))
	f.Add([]byte(`{"op":"hits","hits":[{"sid":"s1","addr":536870912,"size":4,"pc":12,"instrs":99}]}`))
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xff}, 4096))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		err := WriteFrame(&buf, payload)
		if len(payload) == 0 || len(payload) > MaxFrame {
			if err == nil {
				t.Fatalf("WriteFrame accepted %d-byte payload", len(payload))
			}
			return
		}
		if err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		got, err := ReadFrame(&buf, nil)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip changed payload: %d bytes in, %d out", len(payload), len(got))
		}
		// A second read on the drained stream is a clean EOF.
		if _, err := ReadFrame(&buf, got); err != io.EOF {
			t.Fatalf("read past end: err = %v, want io.EOF", err)
		}
	})
}

// FuzzFrameDecode: arbitrary byte streams — truncations, wild lengths,
// garbage JSON — must produce errors, never panics, and never huge
// allocations (the MaxFrame check runs before any payload allocation).
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 5, 'h', 'i'})
	ok := []byte(`{"op":"resp","seq":3,"ok":true}`)
	var framed bytes.Buffer
	WriteFrame(&framed, ok)
	f.Add(framed.Bytes())
	var hits bytes.Buffer
	WriteFrame(&hits, []byte(`{"op":"hits","hits":[{"sid":"s1","addr":536870912,"size":4,"pc":12,"instrs":99},{"sid":"s1","addr":536870916,"size":4,"read":true,"pc":16,"instrs":100,"old":1,"new":2}]}`))
	f.Add(hits.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var m Msg
		var buf []byte
		for {
			var err error
			buf, err = readMsg(r, buf, &m)
			if err != nil {
				break // any error is acceptable; looping proves no panic
			}
		}
	})
}

func frame(payload []byte) []byte {
	var b bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	b.Write(hdr[:])
	b.Write(payload)
	return b.Bytes()
}

// TestReadFrameErrors pins the error taxonomy the fuzzers rely on.
func TestReadFrameErrors(t *testing.T) {
	cases := []struct {
		name  string
		input []byte
		want  error  // exact error, or
		sub   string // substring of the error text
	}{
		{name: "clean EOF", input: nil, want: io.EOF},
		{name: "truncated header", input: []byte{0, 0}, want: io.ErrUnexpectedEOF},
		{name: "zero length", input: []byte{0, 0, 0, 0}, sub: "zero-length"},
		{name: "oversized", input: []byte{0xff, 0xff, 0xff, 0xff}, sub: "exceeds MaxFrame"},
		{name: "just over the cap", input: frame(nil)[:4], sub: "zero-length"},
		{name: "truncated payload", input: []byte{0, 0, 0, 8, 'a', 'b'}, want: io.ErrUnexpectedEOF},
	}
	// Patch the oversized-by-one case properly: a header declaring
	// MaxFrame+1 with no payload must fail on the length check alone.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	cases = append(cases, struct {
		name  string
		input []byte
		want  error
		sub   string
	}{name: "MaxFrame+1", input: hdr[:], sub: "exceeds MaxFrame"})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadFrame(bytes.NewReader(tc.input), nil)
			if err == nil {
				t.Fatal("ReadFrame succeeded on malformed input")
			}
			if tc.want != nil && err != tc.want {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if tc.sub != "" && !strings.Contains(err.Error(), tc.sub) {
				t.Fatalf("err = %v, want substring %q", err, tc.sub)
			}
		})
	}
}

// TestFrameAtCap: exactly MaxFrame bytes round-trips; garbage JSON inside a
// well-formed frame errors at the message layer.
func TestFrameAtCap(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, MaxFrame)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, big); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf, nil)
	if err != nil || len(got) != MaxFrame {
		t.Fatalf("cap-size frame: len=%d err=%v", len(got), err)
	}
	var m Msg
	if _, err := readMsg(bytes.NewReader(frame([]byte("not json"))), nil, &m); err == nil {
		t.Fatal("readMsg accepted garbage JSON")
	}
}

// TestMsgRoundTrip: a fully populated message survives encode/decode.
func TestMsgRoundTrip(t *testing.T) {
	in := Msg{
		Op: OpResp, Seq: 42, SID: "s7", OK: true, Shard: 3,
		Code: 1, Cycles: 123456789, Instrs: 987654321,
		Output: "hello\n", HitTotal: 17,
		Hits: []HitRec{{SID: "s7", Addr: 0x2000_0000, Size: 4, PC: 9, Instrs: 1000}},
	}
	var buf bytes.Buffer
	if err := writeMsg(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out Msg
	if _, err := readMsg(&buf, nil, &out); err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Seq != in.Seq || out.SID != in.SID ||
		out.Cycles != in.Cycles || out.Instrs != in.Instrs ||
		out.Output != in.Output || out.HitTotal != in.HitTotal ||
		len(out.Hits) != 1 || out.Hits[0] != in.Hits[0] {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}
