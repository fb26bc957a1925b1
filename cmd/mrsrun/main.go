// Command mrsrun is a minimal data-breakpoint debugger: it compiles a
// mini-C program (or assembles a .s file), installs data breakpoints on
// named global variables, runs the program under the monitored region
// service, and reports every monitor hit — the paper's motivating query
// "stop when field f of structure s is modified", end to end.
//
// Usage:
//
//	mrsrun -watch counter prog.c
//	mrsrun -watch grid -strategy cache -v prog.c
//	mrsrun -watch total -elim prog.c      (eliminated checks + PreMonitor)
//	mrsrun -watch buf -watch-kind load prog.c       (read watchpoint, §5)
//	mrsrun -watch flag -watch-kind transition -pred nonzero prog.c
//
// -watch-kind selects which accesses deliver hits: all (default), store,
// load (instruments loads too), or transition (store-triggered, delivered
// only when -pred's result over the stored word changes; -pred is one of
// changed, nonzero, sign, mask, eq, with -pred-arg for mask/eq).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"databreak/internal/asm"
	"databreak/internal/cache"
	"databreak/internal/elim"
	"databreak/internal/machine"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/patch"
)

func main() {
	watch := flag.String("watch", "", "comma-separated global variables to watch")
	strategy := flag.String("strategy", "bitmap-inline-registers",
		"write check implementation: bitmap, bitmap-inline, bitmap-inline-registers, cache, cache-inline, hash")
	useElim := flag.Bool("elim", false, "use write-check elimination (PreMonitor arms known writes)")
	watchKind := flag.String("watch-kind", "all", "access kinds that deliver hits: all, store, load, transition")
	pred := flag.String("pred", "changed", "transition predicate: changed, nonzero, sign, mask, eq")
	predArg := flag.Uint("pred-arg", 0, "argument for the mask and eq predicates")
	verbose := flag.Bool("v", false, "print cycle statistics")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mrsrun [-watch v1,v2] [-strategy S | -elim] <prog.c|prog.s>")
		os.Exit(2)
	}
	path := flag.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	src := string(data)
	if strings.HasSuffix(path, ".c") {
		src, err = minic.Compile(src)
		if err != nil {
			fail(err)
		}
	}
	u, err := asm.Parse(path, src)
	if err != nil {
		fail(err)
	}

	strategies := map[string]patch.Strategy{
		"bitmap": patch.Bitmap, "bitmap-inline": patch.BitmapInline,
		"bitmap-inline-registers": patch.BitmapInlineRegisters,
		"cache":                   patch.Cache, "cache-inline": patch.CacheInline,
		"hash": patch.HashCall,
	}

	// Resolve the watch kind up front: "load" changes how the program is
	// patched (loads get checks too), not just how regions are created.
	kindName := strings.ToLower(*watchKind)
	var kind monitor.Kind
	transition := kindName == "transition"
	var transPred monitor.Predicate
	if transition {
		pk, err := monitor.ParsePredKind(*pred)
		if err != nil {
			fail(err)
		}
		transPred = monitor.Predicate{Kind: pk, Arg: uint32(*predArg)}
	} else {
		kind, err = monitor.ParseKind(kindName)
		if err != nil {
			fail(err)
		}
	}
	checkReads := kindName == "load"
	if *useElim && kindName != "all" {
		fail(fmt.Errorf("-watch-kind %s is not supported with -elim (PreMonitor arms write checks)", kindName))
	}

	mcfg := monitor.DefaultConfig
	var prog *asm.Program
	var elimRes *elim.Result
	if *useElim {
		res, err := elim.Apply(elim.Options{Mode: elim.Full, Monitor: mcfg, CheckReads: checkReads}, u)
		if err != nil {
			fail(err)
		}
		elimRes = res
		prog, err = asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
		if err != nil {
			fail(err)
		}
	} else {
		strat, ok := strategies[strings.ToLower(*strategy)]
		if !ok {
			fail(fmt.Errorf("unknown strategy %q", *strategy))
		}
		if strat == patch.Cache || strat == patch.CacheInline {
			mcfg.Flags = true
		}
		res, err := patch.Apply(patch.Options{Strategy: strat, Monitor: mcfg, CheckReads: checkReads}, u)
		if err != nil {
			fail(err)
		}
		prog, err = asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
		if err != nil {
			fail(err)
		}
	}

	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	svc, err := monitor.NewService(mcfg, m)
	if err != nil {
		fail(err)
	}
	var rt *elim.Runtime
	if elimRes != nil {
		rt = elim.NewRuntime(m, prog, elimRes)
	}

	// Resolve watched symbols to monitored regions.
	symOf := make(map[uint32]string)
	if *watch != "" {
		for _, name := range strings.Split(*watch, ",") {
			name = strings.TrimSpace(name)
			sym, ok := prog.LookupSym(name, "")
			if !ok || sym.Kind != asm.SymGlobal {
				fail(fmt.Errorf("no global variable %q (stack variables need a live frame)", name))
			}
			size := uint32(sym.Size)
			if size == 0 {
				size = 4
			}
			switch {
			case rt != nil:
				if err := rt.PreMonitorSymbol(svc, name); err != nil {
					fail(err)
				}
			case transition:
				if err := svc.CreateTransitionRegion(sym.Addr, size, transPred); err != nil {
					fail(err)
				}
			default:
				if err := svc.CreateRegionKind(sym.Addr, size, kind); err != nil {
					fail(err)
				}
			}
			for o := uint32(0); o < size; o += 4 {
				symOf[sym.Addr+o] = name
			}
			fmt.Fprintf(os.Stderr, "mrsrun: watching %s at %#x (+%d bytes)\n", name, sym.Addr, size)
		}
	}

	svc.OnHit = func(h monitor.Hit) {
		name := symOf[h.Addr&^3]
		if name == "" {
			name = "?"
		}
		switch {
		case transition:
			fmt.Fprintf(os.Stderr, "mrsrun: TRANSITION %s at %#x (%d -> %d) after %d instructions\n",
				name, h.Addr, int32(h.Old), int32(h.New), h.Instrs)
		case h.Read:
			fmt.Fprintf(os.Stderr, "mrsrun: READ %s at %#x (value %d) after %d instructions\n",
				name, h.Addr, m.ReadWord(h.Addr&^3), h.Instrs)
		default:
			fmt.Fprintf(os.Stderr, "mrsrun: HIT %s at %#x (new value %d) after %d instructions\n",
				name, h.Addr, m.ReadWord(h.Addr&^3), h.Instrs)
		}
	}

	code, err := m.Run()
	if err != nil {
		fail(err)
	}
	fmt.Print(m.Output())
	if *verbose {
		fmt.Fprintf(os.Stderr, "mrsrun: exit=%d instrs=%d cycles=%d hits=%d\n",
			code, m.Instrs(), m.Cycles(), svc.HitCount)
	}
	os.Exit(int(code))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mrsrun:", err)
	os.Exit(1)
}
