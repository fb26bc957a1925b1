// Compile-once, run-many program images.
//
// An Image is the immutable, shareable form of a loaded program's text: the
// decoded sparc.Instr slice plus the predecoded µop/block index from
// blocks.go, built once by BuildImage and attached to any number of Machines
// with LoadImage. Sharing is safe because every execution path only READS
// text and uops; the one mutation path, PatchInstr, privatizes both arrays
// on first write (copy-on-write), so a Kessler-style runtime patch in one
// machine — the PreMonitor/PostMonitor flow, elim.Runtime arming a site —
// can never leak into a sibling sharing the same image. This is the
// self-modifying-code hazard of "Instrumenting self-modifying code"
// (PAPERS.md) resolved in the direction the paper's design wants: the shared
// artifact stays pristine, the patching debuggee pays a one-time copy.
//
// Simulated cycle and instruction counts are bit-identical between LoadText
// and LoadImage by construction: both install the same decoded text and the
// same block index, and neither touches the cache model. The differential
// suite (image_test.go) pins this.
package machine

import (
	"unsafe"

	"databreak/internal/sparc"
)

// Image is an immutable predecoded program text. Build with BuildImage;
// attach with Machine.LoadImage. A single Image may back any number of
// Machines on any number of goroutines concurrently — it is never written
// after BuildImage returns.
type Image struct {
	text  []sparc.Instr
	uops  []uop
	entry int32
	// traces holds the eagerly compiled trace tier (trace.go), one slot per
	// text index, non-nil at compiled block heads. Like text and uops it is
	// immutable after BuildImage: machines enter traces read-only, and a
	// patching machine privatizes away from the whole image first.
	// traceShift is the I-line shift the traces were compiled for (the
	// default cache geometry); machines with a different geometry compile
	// their own traces instead (syncTraceState).
	traces     []*traceProg
	traceShift uint32
}

// BuildImage decodes text into a shareable image with the given entry point
// (a text index). The input slice is copied, so the caller may reuse it.
// Trace compilation happens here too — eagerly, for every block head — so
// the cost is paid once per image, not per attached machine.
func BuildImage(text []sparc.Instr, entry int32) *Image {
	img := &Image{
		text:  make([]sparc.Instr, len(text)),
		entry: entry,
	}
	copy(img.text, text)
	img.uops = buildUops(img.text, nil)
	img.traceShift = defaultLineShift()
	img.traces = buildTraces(img.text, img.uops, entry, img.traceShift)
	return img
}

// Len returns the number of instructions in the image.
func (img *Image) Len() int { return len(img.text) }

// Entry returns the image's entry point (a text index).
func (img *Image) Entry() int32 { return img.entry }

// SizeBytes reports the host memory the image retains (text + block index +
// compiled traces), for artifact-cache accounting. It counts capacities, and
// BuildImage allocates every array at exactly its length, so the figure is
// what the artifact cache's byte cap actually holds.
func (img *Image) SizeBytes() int {
	return cap(img.text)*int(unsafe.Sizeof(sparc.Instr{})) +
		cap(img.uops)*int(unsafe.Sizeof(uop{})) +
		cap(img.traces)*int(unsafe.Sizeof((*traceProg)(nil))) +
		img.TraceBytes()
}

// TraceBytes reports the portion of SizeBytes held by the compiled trace
// tier alone (trace headers, op streams, invalidation spans) — the part
// that scales with how much of the text went hot, reported separately so
// cache accounting can distinguish code from trace footprint.
func (img *Image) TraceBytes() int {
	n := 0
	for _, tr := range img.traces {
		if tr != nil {
			n += int(unsafe.Sizeof(traceProg{})) +
				cap(tr.ops)*int(unsafe.Sizeof(top{})) +
				cap(tr.spans)*int(unsafe.Sizeof([2]int32{}))
		}
	}
	return n
}

// buildUops decodes text into its block index, reusing buf's capacity when
// possible. It is the single decode pass shared by LoadText (private text)
// and BuildImage (shared image): for every index i, the entry holds the
// predecoded µop and the straight-line run length starting at i (see
// blocks.go).
func buildUops(text []sparc.Instr, buf []uop) []uop {
	n := len(text)
	if cap(buf) < n {
		buf = make([]uop, n)
	}
	buf = buf[:n]
	next := int32(0) // bl of index i+1
	for i := n - 1; i >= 0; i-- {
		u, ok := decodeUop(&text[i])
		if ok {
			next = min(next+1, maxBlockLen)
		} else {
			next = 0
		}
		u.bl = next
		buf[i] = u
	}
	return buf
}

// LoadImage attaches a shared image: the machine executes directly from the
// image's text and block index with no copying. PC starts at the image's
// entry point. The first PatchInstr after LoadImage privatizes the text and
// µop arrays (copy-on-write), so patches stay invisible to every other
// machine sharing img. Counts are bit-identical to LoadText of the same
// text (see image_test.go).
func (m *Machine) LoadImage(img *Image) {
	m.text = img.text
	m.uops = img.uops
	m.imgShared = true
	m.img = img
	m.pc = img.entry
	m.textGen++
	m.syncTraceState()
}

// privatize gives the machine its own copy of the text and block index. It
// is the copy-on-write half of LoadImage: called by PatchInstr before the
// first mutation, it guarantees no write ever lands in a shared image. The
// image's compiled traces are dropped for THIS machine only — they were
// built against text this machine is about to diverge from — while siblings
// sharing the image keep executing them untouched; the patching machine's
// hot heads recompile privately via the hotness counters.
func (m *Machine) privatize() {
	if !m.imgShared {
		return
	}
	text := make([]sparc.Instr, len(m.text))
	copy(text, m.text)
	uops := make([]uop, len(m.uops))
	copy(uops, m.uops)
	m.text = text
	m.uops = uops
	m.imgShared = false
	m.img = nil
	m.syncTraceState()
}
