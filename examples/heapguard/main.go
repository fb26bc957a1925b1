// Heapguard demonstrates the fault-isolation application from the paper's
// conclusion: "a programmer could detect corruption of library data
// structures such as those used by a memory allocator."
//
// The simulated allocator stores a hidden size header one word before each
// allocation. A buggy program underflows its buffer and smashes that
// header. Control breakpoints cannot find this (the crash appears much
// later, inside free); a data breakpoint on the header catches the guilty
// store the moment it executes.
package main

import (
	"fmt"
	"os"

	"databreak/internal/asm"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/patch"
)

const program = `
int fill(int *buf, int n, int bug) {
	int i;
	for (i = 0; i < n; i = i + 1) buf[i] = i;
	if (bug) buf[0 - 1] = 777;   // underflow: smashes the allocator header
	return 0;
}

int main() {
	int *a;
	int *b;
	a = alloc(64);
	b = alloc(64);
	fill(a, 16, 0);
	fill(b, 16, 1);
	free(a);
	free(b);
	return a[3] + b[5];
}
`

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "heapguard: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	asmSrc, err := minic.Compile(program)
	if err != nil {
		fatalf("compile: %v", err)
	}
	u, err := asm.Parse("heapguard.c", asmSrc)
	if err != nil {
		fatalf("parse: %v", err)
	}
	res, err := patch.Apply(patch.Options{Strategy: patch.Cache}, u)
	if err != nil {
		fatalf("patch: %v", err)
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
	if err != nil {
		fatalf("assemble: %v", err)
	}

	mcfg := monitor.DefaultConfig
	mcfg.Flags = true // segment caching needs the monitored flag
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	svc, err := monitor.NewService(mcfg, m)
	if err != nil {
		fatalf("monitor service: %v", err)
	}

	// Intercept allocations and guard each block's hidden header word. In
	// the paper's framing, the allocator's metadata is a library data
	// structure the application must never touch.
	guarded := 0
	var watchNext []uint32
	svc.OnHit = func(h monitor.Hit) {
		fmt.Printf("  CORRUPTION: store to allocator header at %#x "+
			"(instruction %d) — caught at the guilty write\n", h.Addr, h.Instrs)
	}

	// Run instruction by instruction so we can guard headers as blocks are
	// handed out (a debugger would use a control breakpoint on alloc).
	for !m.Halted() {
		pc := m.PC()
		in, ok := m.InstrAt(pc)
		isAlloc := ok && in.Op.String() == "ta" && in.Imm == machine.TrapAlloc
		if err := m.Step(); err != nil {
			fatalf("step: %v", err)
		}
		if isAlloc {
			ptr := uint32(m.Reg(8)) // %o0 holds the new block
			watchNext = append(watchNext, ptr-4)
		}
		for _, hdr := range watchNext {
			if err := svc.CreateRegion(hdr, 4); err == nil {
				guarded++
				fmt.Printf("guarding allocator header at %#x\n", hdr)
			}
		}
		watchNext = watchNext[:0]
	}
	fmt.Printf("done: %d headers guarded, %d corruptions detected, exit=%d\n",
		guarded, svc.HitCount, m.ExitCode())
}
