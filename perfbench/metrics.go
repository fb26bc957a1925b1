package main

import (
	"time"
)

// layerMetric is one per-layer metric and how the traced run derives it
// from its spans and observations. A layer the workload never calls reads
// 0.
type layerMetric struct {
	metricDef
	value func(t *Tracer) (float64, error)
}

// meanSpan is the mean duration of the spans named op.
func meanSpan(op string, unit time.Duration) func(*Tracer) (float64, error) {
	return func(t *Tracer) (float64, error) { return t.meanOp(op, unit), nil }
}

// meanObs is the mean of the named observations.
func meanObs(name string) func(*Tracer) (float64, error) {
	return func(t *Tracer) (float64, error) { return mean(t.observations(name)), nil }
}

// ratioObs is sum(num) / sum(den) over the named observations.
func ratioObs(num, den string) func(*Tracer) (float64, error) {
	return func(t *Tracer) (float64, error) {
		var n, d float64
		for _, v := range t.observations(num) {
			n += v
		}
		for _, v := range t.observations(den) {
			d += v
		}
		if d == 0 {
			return 0, nil
		}
		return n / d, nil
	}
}

// p90Obs is the 90th percentile of the named observations, refused (as an
// error) when fewer than minBeyond samples lie beyond it.
func p90Obs(name string) func(*Tracer) (float64, error) {
	return func(t *Tracer) (float64, error) {
		xs := t.observations(name)
		if len(xs) == 0 {
			return 0, nil
		}
		p, err := percentile(xs, 0.9)
		return p.Value, err
	}
}

// nsPerSimInstr is host time per simulated instruction over every run the
// benchmark timed itself.
func nsPerSimInstr(t *Tracer) (float64, error) {
	var run time.Duration
	for _, d := range t.opDurations("machine.Run") {
		run += d
	}
	var instrs float64
	for _, v := range t.observations("machine.sim_instrs") {
		instrs += v
	}
	if instrs == 0 {
		return 0, nil
	}
	return float64(run) / instrs, nil
}

// patchPerElimRun is the time in elim.Runtime arming calls per elimination
// run: PreMonitorSymbol's arming and copy-on-write, and the range and
// loop-invariant hits that arm sites from inside the run.
func patchPerElimRun(t *Tracer) (float64, error) {
	runs := len(t.observations("elim.dyn_writes"))
	if runs == 0 {
		return 0, nil
	}
	var sum time.Duration
	for _, d := range t.opDurations("machine.Patch") {
		sum += d
	}
	return float64(sum) / float64(runs) / float64(us), nil
}

const us = time.Microsecond

// perLayer are the metrics every traced run prints, on every workload.
var perLayer = []layerMetric{
	{metricDef{"minic.compile_ms", "ms", "lower"}, meanSpan("minic.Compile", time.Millisecond)},
	{metricDef{"minic.asm_kb", "KB", "lower"}, meanObs("minic.asm_kb")},
	{metricDef{"asm.parse_ms", "ms", "lower"}, meanSpan("asm.Parse", time.Millisecond)},
	{metricDef{"asm.assemble_ms", "ms", "lower"}, meanSpan("asm.Assemble", time.Millisecond)},
	{metricDef{"asm.text_instrs", "count", "lower"}, meanObs("asm.text_instrs")},
	{metricDef{"patch.apply_ms", "ms", "lower"}, meanSpan("patch.Apply", time.Millisecond)},
	{metricDef{"patch.static_checks", "count", "lower"}, meanObs("patch.static_checks")},
	{metricDef{"patch.dyn_checks", "count", "lower"}, meanObs("patch.dyn_checks")},
	{metricDef{"elim.apply_ms", "ms", "lower"}, meanSpan("elim.Apply", time.Millisecond)},
	{metricDef{"elim.static_removed", "count", "higher"}, meanObs("elim.static_removed")},
	{metricDef{"elim.dyn_removed_frac", "ratio", "higher"}, ratioObs("elim.dyn_removed", "elim.dyn_writes")},
	{metricDef{"machine.image_ms", "ms", "lower"}, meanSpan("machine.Image", time.Millisecond)},
	{metricDef{"machine.first_attach_ms", "ms", "lower"}, meanSpan("machine.FirstAttach", time.Millisecond)},
	{metricDef{"machine.load_us", "us", "lower"}, meanSpan("machine.LoadShared", us)},
	{metricDef{"machine.run_ms", "ms", "lower"}, meanSpan("machine.Run", time.Millisecond)},
	{metricDef{"machine.sim_instrs", "count", "lower"}, meanObs("machine.sim_instrs")},
	{metricDef{"machine.sim_cycles", "count", "lower"}, meanObs("machine.sim_cycles")},
	{metricDef{"machine.ns_per_sim_instr", "ns", "lower"}, nsPerSimInstr},
	{metricDef{"machine.patch_us", "us", "lower"}, patchPerElimRun},
	{metricDef{"cache.accesses", "count", "lower"}, meanObs("cache.accesses")},
	{metricDef{"cache.miss_ratio", "ratio", "lower"}, ratioObs("cache.misses", "cache.accesses")},
	{metricDef{"monitor.attach_us", "us", "lower"}, meanSpan("monitor.NewService", us)},
	{metricDef{"monitor.region_op_us", "us", "lower"}, meanSpan("monitor.RegionOp", us)},
	{metricDef{"monitor.hits", "count", "higher"}, meanObs("monitor.hits")},
	{metricDef{"mrsnet.attach_rtt_ms", "ms", "lower"}, meanSpan("mrsnet.Attach", time.Millisecond)},
	{metricDef{"mrsnet.region_rtt_ms", "ms", "lower"}, meanSpan("mrsnet.Region", time.Millisecond)},
	{metricDef{"mrsnet.patch_rtt_ms", "ms", "lower"}, meanSpan("mrsnet.PatchToggle", time.Millisecond)},
	{metricDef{"mrsnet.run_to_first_hit_ms", "ms", "lower"}, meanObs("mrsnet.run_to_first_hit_ms")},
	{metricDef{"mrsnet.run_rtt_ms", "ms", "lower"}, meanSpan("mrsnet.Run", time.Millisecond)},
	{metricDef{"mrsnet.hits_delivered", "count", "higher"}, meanObs("mrsnet.hits_delivered")},
	{metricDef{"mrsnet.in_flight_p90", "count", "lower"}, p90Obs("mrsnet.in_flight")},
	{metricDef{"mrsnet.gen_lag_p90_ms", "ms", "lower"}, p90Obs("mrsnet.gen_lag_ms")},
	{metricDef{"bench.program_source_ms", "ms", "lower"}, meanSpan("bench.ProgramSource", time.Millisecond)},
	{metricDef{"bench.new_machine_us", "us", "lower"}, meanSpan("bench.MachineFactory", us)},
	{metricDef{"bench.artifact_hit_frac", "ratio", "higher"}, meanObs("bench.artifact_hit_frac")},
	{metricDef{"bench.artifact_mb", "MB", "lower"}, meanObs("bench.artifact_mb")},
}
