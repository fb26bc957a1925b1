package machine

import (
	"fmt"
	"slices"
)

// CheckImageTraces checks the storage contract of every compiled trace in
// img (see checkTraces) and returns how many traces it checked. Exported
// for the workload tests in package machine_test, which build their images
// through packages that themselves import machine.
func CheckImageTraces(img *Image) (int, error) {
	return checkTraces(img.traces, len(img.text))
}

// checkTraces checks every non-nil trace of a textLen-instruction text:
// ops and spans are stored at exactly their length (so Image.SizeBytes is
// what the image retains), the op stream ends in its tEnd sentinel, and the
// spans equal refSpans over the indices the op stream consumed.
func checkTraces(traces []*traceProg, textLen int) (int, error) {
	n := 0
	for head, tr := range traces {
		if tr == nil {
			continue
		}
		n++
		if cap(tr.ops) != len(tr.ops) {
			return n, fmt.Errorf("trace %d: ops len %d cap %d", head, len(tr.ops), cap(tr.ops))
		}
		if cap(tr.spans) != len(tr.spans) {
			return n, fmt.Errorf("trace %d: spans len %d cap %d", head, len(tr.spans), cap(tr.spans))
		}
		if len(tr.ops) == 0 || tr.ops[len(tr.ops)-1].op != tEnd {
			return n, fmt.Errorf("trace %d: op stream does not end in tEnd", head)
		}
		want := refSpans(consumedByOps(tr, textLen))
		if !slices.Equal(tr.spans, want) {
			return n, fmt.Errorf("trace %d: spans %v, reference %v", head, tr.spans, want)
		}
	}
	return n, nil
}

// consumedByOps rebuilds a trace's consumed-index mask from its op stream:
// every op but the tEnd sentinel retires topWidth(op) instructions starting
// at the text index of its iaddr, and the walk consumes exactly those.
func consumedByOps(tr *traceProg, textLen int) []bool {
	consumed := make([]bool, textLen)
	for _, u := range tr.ops[:len(tr.ops)-1] {
		i := int32(u.iaddr-TextBase) / 4
		for k := int32(0); k < topWidth(u.op); k++ {
			consumed[i+k] = true
		}
	}
	return consumed
}

// refSpans is the reference span builder: the O(text) scan of a consumed
// mask that the trace compiler used before it tracked touched indices.
func refSpans(consumed []bool) [][2]int32 {
	var spans [][2]int32
	for i := 0; i < len(consumed); i++ {
		if !consumed[i] {
			continue
		}
		j := i
		for j < len(consumed) && consumed[j] {
			j++
		}
		spans = append(spans, [2]int32{int32(i), int32(j)})
		i = j
	}
	return spans
}
