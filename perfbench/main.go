// Command perfbench is the repository's benchmark: one workload per run,
// measured for a fixed time, every result checked for correctness, and
// the metrics printed with their units, the last line being one JSON
// object. Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload table3_kernels --seed 1 --seconds 30 --trace 0
//
// Workloads (see workloadWhy): table3_kernels, checked_stress and
// served_jobs. Each run repeats the workload's inputs, made from --seed,
// in passes for --seconds after one warm-up pass, and reports medians
// over passes and percentiles over jobs, in host CPU time (which leaves
// out hypervisor steal) scaled to a reference host speed, with the
// wall-clock view printed beside it (see endToEnd and calibration). With
// --trace 1 it alternates untraced passes with traced ones, which record
// spans around every call into a layer's public functions and run under
// a CPU profile, and it reports the per-layer metrics; the spans go to
// <out>/spans-<workload>-<seed>.json.
//
// Correctness: a job fails on a simulation or verification error, a
// stress Err, a job that did not end done, a result that differs between
// passes, or a memory fingerprint or cycle count that differs from the
// references in refs.json (recorded for some seeds; served seed-42 jobs
// are also compared with testdata/fingerprints.json). Any failure makes
// the exit code 1.
//
// -record rewrites refs.json with one pass per workload per seed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"
)

// minJobs keeps a run measuring past --seconds until it has this many
// job latencies, so job_p90_ms has at least ten samples beyond it.
const minJobs = 100

// hardStop is when a run stops starting passes whatever the budget, so it
// ends well inside the three minutes a run may take.
const hardStop = 140 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "input seed")
		secs    = flag.Int("seconds", 30, "measured time per run")
		traced  = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory for spans and server state")
		record  = flag.String("record", "", "write reference results for -seeds to this file and exit")
		seedSet = flag.String("seeds", "", "comma-separated seeds for -record")
	)
	flag.Parse()
	fail := func(code int, err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return code
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(2, err)
	}
	if *record != "" {
		if err := recordRefs(*record, *seedSet, *out); err != nil {
			return fail(1, err)
		}
		return 0
	}
	w, err := newWorkload(*name, *seed, *out)
	if err != nil {
		return fail(2, err)
	}
	want, err := expected(*name, *seed, goldenPath)
	if err != nil {
		return fail(2, err)
	}
	host := newHostFacts()
	host.StateFS = fsType(*out)
	steal0, _ := procStatTicks()

	opts := runOpts{budget: time.Duration(*secs) * time.Second, minJobs: minJobs, deadline: time.Now().Add(hardStop), traced: *traced != 0}
	r, err := runWorkload(context.Background(), w, want, opts)
	if err != nil {
		return fail(1, err)
	}
	steal, _ := procStatTicks()
	host.StealTicks = steal - steal0
	if opts.traced {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := r.tracer.writeSpans(path, host); err != nil {
			return fail(1, err)
		}
		fmt.Printf("spans: %d written to %s\n", len(r.tracer.spans), path)
	}
	report(os.Stdout, *name, *seed, host, r)
	if !r.verdict.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string { return []string{wlTable3, wlStress, wlServed} }

func newWorkload(name string, seed int64, out string) (workload, error) {
	switch name {
	case wlTable3:
		return newTable3Kernels(seed), nil
	case wlStress:
		return newCheckedStress(seed), nil
	case wlServed:
		dir := filepath.Join(out, "serve-state")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return newServedJobs(seed, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

type runOpts struct {
	budget   time.Duration // measured time
	minJobs  int           // time at least this many untraced jobs
	deadline time.Time     // start no pass after this
	traced   bool
}

// result is one run: every pass made (warm-up included), its verdict,
// and its metrics: the end-to-end ones, plus the per-layer ones when
// traced. defs are the ones it reports; timed are the passes the
// end-to-end metrics come from.
type result struct {
	passes  []pass
	timed   []pass
	verdict verdict
	metrics map[string]float64
	defs    []metricDef
	tracer  *tracer
}

// runWorkload measures w and checks every pass against want. Untraced, it
// reports the end-to-end metrics. Traced, it alternates untraced and
// traced passes and reports the per-layer metrics, with the CPU-time
// difference between the two kinds of pass as the tracing overhead.
func runWorkload(ctx context.Context, w workload, want map[string]ref, o runOpts) (*result, error) {
	r := &result{defs: endToEnd}
	if o.traced {
		r.defs = perLayer
		r.tracer = newTracer()
	}
	steal0, total0 := procStatTicks()
	ms, err := measure(ctx, w, o, r.tracer)
	if err != nil {
		return nil, err
	}
	r.passes = append(append(ms.warm, ms.untraced...), ms.traced...)
	r.timed = ms.untraced
	scale := ms.cal.scale()
	r.metrics = endToEndMetrics(ms.untraced, scale)
	r.metrics["host.cpu_scale"] = scale
	var extra []job
	if o.traced {
		m := layerMetrics(r.tracer.sum, ms.cpu, ms.traced)
		if ms.allCPU > 0 {
			m["gc.cpu_frac"] = ms.gcCPU / ms.allCPU
		}
		m["trace.overhead_frac"] = endToEndMetrics(ms.traced, scale)["cpu_s"]/r.metrics["cpu_s"] - 1
		if s, ok := w.(*servedJobs); ok {
			var plain time.Duration
			var cnt counts
			plain, cnt, extra = s.plainRuns(ms.traced[0].jobs)
			for i, c := range countNames {
				m[c] = float64(cnt[i])
			}
			m["serve.run_over_plain"] = s.servedRun.Seconds() / float64(len(ms.traced)) / plain.Seconds()
		}
		for k, v := range m {
			r.metrics[k] = v
		}
	}
	r.verdict = verify(r.passes, want)
	r.verdict.failures = append(r.verdict.failures, extra...)
	r.verdict.failed += len(extra)
	r.metrics["ok_frac"] = float64(r.verdict.attempted-r.verdict.failed) / float64(r.verdict.attempted)
	if steal, total := procStatTicks(); total > total0 {
		r.metrics["host.steal_frac"] = float64(steal-steal0) / float64(total-total0)
	}
	return r, nil
}

// measured are the passes of one run.
type measured struct {
	warm, untraced, traced []pass
	cal                    *calibration       // the host's speed, sampled in every timed pass
	cpu                    map[string]float64 // self CPU ns by group over the traced passes
	gcCPU, allCPU          float64            // the runtime's GC and total CPU seconds over them
}

// measure runs one untimed warm-up pass and then passes until o.budget
// has passed and o.minJobs jobs were timed. With a tracer, untraced and
// traced passes alternate, so both kinds see the same host conditions,
// and each traced pass runs under a CPU profile.
func measure(ctx context.Context, w workload, o runOpts, tr *tracer) (*measured, error) {
	m := &measured{cpu: map[string]float64{}}
	c0 := cpuTime()
	warm, err := w.pass(ctx, nil, nil)
	if err != nil {
		return nil, err
	}
	m.warm = []pass{warm}
	m.cal = newCalibration(cpuTime()-c0, len(warm.jobs))
	t0 := time.Now()
	jobs := 0
	for time.Since(t0) < o.budget || jobs < o.minJobs || len(m.untraced) == 0 {
		if !o.deadline.IsZero() && time.Now().After(o.deadline) {
			return nil, fmt.Errorf("only %d jobs timed by the deadline; the workload is too slow for a run", jobs)
		}
		p, err := m.timedPass(ctx, w, nil)
		if err != nil {
			return nil, err
		}
		m.untraced = append(m.untraced, p)
		jobs += len(p.jobs)
		if tr != nil {
			if err := m.tracedPass(ctx, w, tr); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// timedPass runs one pass, sampling the host's speed after every job,
// and sets the pass's CPU time, wall-clock time (both without the
// samples') and peak RSS. Every pass starts from a collected heap, so
// where collections fall in a pass does not depend on the passes before
// it.
func (m *measured) timedPass(ctx context.Context, w workload, tr *tracer) (pass, error) {
	runtime.GC()
	resetPeakRSS()
	calCPU, calWall := m.cal.cpu, m.cal.wall
	c0 := cpuTime()
	p, err := w.pass(ctx, tr, m.cal)
	p.cpu, p.rssMB = cpuTime()-c0-(m.cal.cpu-calCPU), peakRSSMB()
	p.wall -= m.cal.wall - calWall
	return p, err
}

// tracedPass runs one traced pass under a CPU profile and adds its self
// time by group (the calibration loop's left out) and its runtime CPU
// split to m.
func (m *measured) tracedPass(ctx context.Context, w workload, tr *tracer) error {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	gc0, all0 := runtimeCPU()
	cal0 := m.cal.cpu
	p, err := m.timedPass(ctx, w, tr)
	gc1, all1 := runtimeCPU()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	cpu, err := cpuByGroup(prof.Bytes())
	if err != nil {
		return err
	}
	for g, ns := range cpu {
		m.cpu[g] += ns
	}
	m.gcCPU += gc1 - gc0
	m.allCPU += all1 - all0 - (m.cal.cpu - cal0).Seconds()
	m.traced = append(m.traced, p)
	return nil
}

// endToEndMetrics computes the end-to-end metrics over the timed passes:
// medians over passes, percentiles over jobs, each in CPU time scaled to
// the reference host speed by scale (see calibration) and in wall-clock
// time.
func endToEndMetrics(timed []pass, scale float64) map[string]float64 {
	var wall, setup, ips, jps, lat, cpu, setupCPU, ipc, jpc, latCPU, rss []float64
	for _, p := range timed {
		rss = append(rss, p.rssMB)
		wall = append(wall, p.wall.Seconds())
		setup = append(setup, p.setup.Seconds())
		ips = append(ips, float64(p.instr)/(p.wall-p.setup).Seconds())
		jps = append(jps, float64(len(p.jobs))/p.wall.Seconds())
		cpu = append(cpu, scale*p.cpu.Seconds())
		setupCPU = append(setupCPU, scale*p.setupCPU.Seconds())
		ipc = append(ipc, float64(p.instr)/(scale*(p.cpu-p.setupCPU).Seconds()))
		jpc = append(jpc, float64(len(p.jobs))/(scale*p.cpu.Seconds()))
		for _, j := range p.jobs {
			lat = append(lat, millis(j.lat))
			latCPU = append(latCPU, scale*millis(j.cpu))
		}
	}
	var cycles uint64
	for _, j := range timed[0].jobs {
		cycles += j.cycles
	}
	return map[string]float64{
		"wall.wall_s":          median(wall),
		"wall.setup_s":         median(setup),
		"wall.sim_instr_per_s": median(ips),
		"wall.job_p50_ms":      quantile(lat, 0.5),
		"wall.job_p90_ms":      quantile(lat, 0.9),
		"wall.jobs_per_s":      median(jps),
		"cpu_s":                median(cpu),
		"setup_s":              median(setupCPU),
		"sim_instr_per_cpu_s":  median(ipc),
		"job_cpu_p50_ms":       quantile(latCPU, 0.5),
		"job_cpu_p90_ms":       quantile(latCPU, 0.9),
		"jobs_per_cpu_s":       median(jpc),
		"peak_rss_mb":          median(rss),
		"sim_cycles":           float64(cycles),
	}
}

// layerMetrics computes the per-layer metrics of the timed traced passes
// from the tracer's sums and the CPU profile's self time by group.
func layerMetrics(sum map[string]float64, cpu map[string]float64, timed []pass) map[string]float64 {
	n := float64(len(timed))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var events, instr float64
	for _, p := range timed {
		events += float64(p.events)
		instr += float64(p.instr)
	}
	simEv, stEv := sum["sim.events"], sum["stress.events"]
	m := map[string]float64{
		"setup.prepare_ms":             sum["cohesion.Prepare.ns"] / n / 1e6,
		"setup.alloc_mb":               sum["cohesion.Prepare.bytes"] / n / 1e6,
		"sim.simulate_ms":              sum["Prepared.Simulate.ns"] / n / 1e6,
		"sim.ns_per_event":             ratio(sum["Prepared.Simulate.ns"], simEv),
		"sim.allocs_per_event":         ratio(sum["Prepared.Simulate.allocs"], simEv),
		"sim.alloc_bytes_per_event":    ratio(sum["Prepared.Simulate.bytes"], simEv),
		"event.events":                 events / n,
		"event.events_per_instr":       ratio(events, instr),
		"finalize.ms":                  sum["Prepared.Finalize.ns"] / n / 1e6,
		"stress.generate_ms":           sum["stress.Generate.ns"] / n / 1e6,
		"stress.run_ms":                sum["stress.RunProgramOpts.ns"] / n / 1e6,
		"stress.ns_per_event":          ratio(sum["stress.RunProgramOpts.ns"], stEv),
		"stress.alloc_bytes_per_event": ratio(sum["stress.RunProgramOpts.bytes"], stEv),
		"oracle.checks":                sum["oracle.checks"] / n,
		"oracle.checks_per_event":      ratio(sum["oracle.checks"], stEv),
		"cov.edges_covered":            sum["cov.edges_covered"] / n,
		"serve.submit_ms":              ratio(sum["serve.submit.ns"], sum["serve.jobs"]) / 1e6,
		"serve.queue_wait_ms":          ratio(sum["serve.queue_wait.ns"], sum["serve.jobs"]) / 1e6,
		"serve.run_ms":                 ratio(sum["serve.run.ns"], sum["serve.jobs"]) / 1e6,
		"serve.rejected":               sum["serve.rejected"],
		"snapshot.write_mb_per_job":    ratio(sum["io.wchar"], sum["serve.jobs"]) / 1e6,
		"snapshot.write_calls_per_job": ratio(sum["io.syscw"], sum["serve.jobs"]),
		"serve.run_over_plain":         0,
	}
	for _, g := range covGroups {
		m["cov."+g] = sum["cov."+g] / n
	}
	var total float64
	for _, ns := range cpu {
		total += ns
	}
	for _, g := range cpuGroups {
		m["cpu."+g] = ratio(cpu[g], total)
	}
	for _, g := range simGroups {
		m["ns_per_event."+g] = ratio(cpu[g], events)
	}
	for i, c := range countNames {
		m[c] = float64(timed[0].counts[i])
	}
	return m
}

// runtimeCPU returns the runtime's estimates of the process's GC and
// total CPU seconds so far.
func runtimeCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// verdict is the correctness check of a run.
type verdict struct {
	attempted, failed int
	failures          []job // failed jobs, each with its error
	unsteady          []string
}

func (v verdict) correct() bool { return v.failed == 0 && len(v.unsteady) == 0 }

// verify checks every job of every pass: no error, the same fingerprint
// and cycle count in every pass, and the reference where there is one.
// The protocol counts of every pass must equal the first pass's.
func verify(passes []pass, want map[string]ref) verdict {
	var v verdict
	first := map[string]job{}
	for pi, p := range passes {
		for _, j := range p.jobs {
			v.attempted++
			if err := checkJob(j, first, want); err != nil {
				v.failed++
				j.err = err
				v.failures = append(v.failures, j)
			}
		}
		if p.counts != passes[0].counts {
			v.unsteady = append(v.unsteady, fmt.Sprintf("pass %d protocol counts %v differ from pass 0 %v", pi, p.counts, passes[0].counts))
		}
	}
	return v
}

func checkJob(j job, first map[string]job, want map[string]ref) error {
	if j.err != nil {
		return j.err
	}
	if r, ok := want[j.key]; ok {
		if r.fp() != j.fp || (r.Cycles != 0 && r.Cycles != j.cycles) {
			return fmt.Errorf("%s: fingerprint %#016x cycles %d, reference %s cycles %d", j.key, j.fp, j.cycles, r.FP, r.Cycles)
		}
	}
	if f, ok := first[j.key]; ok {
		if f.fp != j.fp || f.cycles != j.cycles {
			return fmt.Errorf("%s: fingerprint %#016x cycles %d, earlier pass %#016x cycles %d", j.key, j.fp, j.cycles, f.fp, f.cycles)
		}
	} else {
		first[j.key] = j
	}
	return nil
}

// report prints the human-readable lines and then, last, the result JSON.
func report(f io.Writer, name string, seed int64, host hostFacts, r *result) {
	v := r.verdict
	hj, _ := json.Marshal(host)
	fmt.Fprintf(f, "host: %s\n", hj)
	fmt.Fprintf(f, "workload %s seed %d: %d passes including warm-up, %d jobs", name, seed, len(r.passes), v.attempted)
	if name == wlServed {
		fmt.Fprintf(f, ", poll interval %v", pollInterval)
	}
	fmt.Fprintln(f)
	walls := make([]string, len(r.passes))
	for i, p := range r.passes {
		walls[i] = fmt.Sprintf("%.3f", p.wall.Seconds())
	}
	fmt.Fprintf(f, "pass wall_s: %s\n", strings.Join(walls, " "))
	seen := map[string]int{}
	var msgs []string
	for _, j := range v.failures {
		msg := j.err.Error()
		if seen[msg] == 0 {
			msgs = append(msgs, msg)
		}
		seen[msg]++
	}
	for _, msg := range msgs {
		fmt.Fprintf(f, "FAILED in %d passes: %s\n", seen[msg], msg)
	}
	for _, u := range v.unsteady {
		fmt.Fprintf(f, "UNSTEADY %s\n", u)
	}
	fmt.Fprintf(f, "fail_frac: %g (%d failed of %d attempted)\n", float64(v.failed)/float64(v.attempted), v.failed, v.attempted)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	timedJobs := 0
	for _, p := range r.timed {
		timedJobs += len(p.jobs)
	}
	show := func(d metricDef) {
		n := ""
		switch d.per {
		case "pass":
			n = fmt.Sprintf("median of %d passes", len(r.timed))
		case "job":
			n = fmt.Sprintf("over %d jobs", timedJobs)
		}
		fmt.Fprintf(f, "  %-30s %16.6g %-6s %s\n", d.name, r.metrics[d.name], d.unit, n)
	}
	out := map[string]value{}
	for _, d := range r.defs {
		out[d.name] = value{r.metrics[d.name], d.unit}
		show(d)
	}
	fmt.Fprintf(f, "host speed: CPU times scaled by %.4f, the calibration loop's reference %.1f ns/iteration over its %.2f measured\n",
		r.metrics["host.cpu_scale"], calNsPerIter, calNsPerIter/r.metrics["host.cpu_scale"])
	if r.tracer != nil {
		fmt.Fprintf(f, "trace overhead: %+.1f%% CPU time, traced against untraced passes\n", 100*r.metrics["trace.overhead_frac"])
	} else {
		fmt.Fprintln(f, "wall-clock view (not bounded):")
		for _, d := range wallClock {
			show(d)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{v.correct(), v.attempted, v.failed, out})
	fmt.Fprintln(f, string(line))
}
