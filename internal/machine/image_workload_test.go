package machine_test

import (
	"testing"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/machine"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// TestImageTraceStorageWorkloads holds the compiled traces of every
// workload's unpatched and BitmapInlineRegisters image to the storage
// contract: ops and spans stored at exactly their length, so SizeBytes (and
// the artifact cache's byte cap) counts what the image actually retains,
// and spans equal to the reference built from the op stream.
func TestImageTraceStorageWorkloads(t *testing.T) {
	for _, p := range workload.All(1) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			u, err := bench.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := asm.Assemble(asm.Options{AddStartup: true}, u.Clone())
			if err != nil {
				t.Fatal(err)
			}
			res, err := patch.Apply(patch.Options{Strategy: patch.BitmapInlineRegisters}, u.Clone())
			if err != nil {
				t.Fatal(err)
			}
			patched, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []struct {
				name string
				img  *machine.Image
			}{{"unpatched", plain.Image()}, {"patched", patched.Image()}} {
				n, err := machine.CheckImageTraces(v.img)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if n == 0 {
					t.Fatalf("%s: image compiled no trace", v.name)
				}
			}
		})
	}
}
