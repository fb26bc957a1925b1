// Fieldwatch runs the paper's motivating query end to end:
//
//	"stop when field f of structure s is modified"
//
// A mini-C program with a global struct is compiled, patched with write
// checks, and executed on the simulated machine; the debugger maps the
// field name to a monitored region via the compiler's symbol records and
// reports every hit with the instruction count at which it happened —
// including a write through an alias the programmer would struggle to find
// with control breakpoints.
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
struct Config {
	int mode;
	int limit;
	int count;
};
struct Config cfg;

int directUpdate(int m) {
	cfg.mode = m;
	return 0;
}

int sneakyUpdate(int *p, int v) {
	*p = v;      // alias: the debugger cannot find this by reading the source
	return 0;
}

int touchOthers() {
	cfg.limit = 100;
	cfg.count = cfg.count + 1;
	return 0;
}

int main() {
	directUpdate(1);
	touchOthers();
	sneakyUpdate(&cfg.mode, 2);
	touchOthers();
	directUpdate(3);
	return cfg.mode;
}
`

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fieldwatch: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	asmSrc, err := minic.Compile(program)
	if err != nil {
		fatalf("compile: %v", err)
	}
	u, err := asm.Parse("fieldwatch.c", asmSrc)
	if err != nil {
		fatalf("parse: %v", err)
	}
	res, err := patch.Apply(patch.Options{Strategy: patch.BitmapInlineRegisters}, u)
	if err != nil {
		fatalf("patch: %v", err)
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
	if err != nil {
		fatalf("assemble: %v", err)
	}

	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	svc, err := monitor.NewService(monitor.DefaultConfig, m)
	if err != nil {
		fatalf("monitor service: %v", err)
	}

	// Map "field mode of struct cfg" to a monitored region: the struct's
	// symbol record plus the field offset (mode is the first field).
	sym, ok := prog.LookupSym("cfg", "")
	if !ok {
		fatalf("no symbol cfg in patched program")
	}
	fieldAddr := sym.Addr + 0 // offsetof(Config, mode)
	if err := svc.CreateRegion(fieldAddr, 4); err != nil {
		fatalf("create region: %v", err)
	}
	fmt.Printf("watching cfg.mode at %#x\n", fieldAddr)

	svc.OnHit = func(h monitor.Hit) {
		fmt.Printf("  cfg.mode modified -> %d (instruction %d)\n",
			m.ReadWord(fieldAddr), h.Instrs)
	}
	code, err := m.Run()
	if err != nil {
		fatalf("run: %v", err)
	}
	fmt.Printf("program exited %d after %d instructions; %d hits "+
		"(including the aliased write), other fields untouched by the watch\n",
		code, m.Instrs(), svc.HitCount)
}
