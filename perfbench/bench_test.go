package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the repository's benchmark definition.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// quick runs measure a single pass per half after the warm-up pass.
var quick = runOpts{minJobs: 1}

// small workloads keep only the first n inputs of each workload.
func smallTable3(n int) workload {
	w := newTable3Kernels(1)
	w.runs = w.runs[:n]
	return w
}

func smallStress(rounds int) *checkedStress {
	w := newCheckedStress(1)
	w.rounds = w.rounds[:rounds]
	return w
}

func smallServed(t *testing.T, n int) workload {
	w := newServedJobs(1, t.TempDir())
	w.specs = w.specs[:n]
	return w
}

// emitted runs w and returns the metrics of its result line.
func emitted(t *testing.T, w workload, traced bool) map[string]struct {
	Value float64
	Unit  string
} {
	t.Helper()
	o := quick
	o.traced = traced
	r, err := runWorkload(context.Background(), w, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report(&buf, "test", 1, newHostFacts(), r)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line struct {
		Correct bool
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if !line.Correct {
		t.Fatalf("run not correct:\n%s", buf.String())
	}
	return line.Metrics
}

func TestBenchmarkJSONMatchesDesign(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloadNames()))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames()[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), benchmark %q (%q)", i, w.Name, w.Why, workloadNames()[i], workloadWhy[workloadNames()[i]])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	workloads := map[string]bool{"all": true}
	for _, n := range workloadNames() {
		workloads[n] = true
	}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.name] = true
	}
	for _, d := range perLayer {
		if !e2e[d.moves] || !workloads[d.on] {
			t.Errorf("per-layer %s moves %q on %q: not an end-to-end metric and workload", d.name, d.moves, d.on)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// TestEmittedMetricsMatchBenchmarkJSON checks the names and units of the
// result line, untraced and traced, against BENCHMARK.json.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	check := func(kind string, got map[string]struct {
		Value float64
		Unit  string
	}, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: emitted %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for name, unit := range want {
			if g, ok := got[name]; !ok || g.Unit != unit {
				t.Errorf("%s: metric %s emitted as %+v, BENCHMARK.json unit %q", kind, name, g, unit)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("untraced", emitted(t, smallStress(1), false), e2e)
	check("traced", emitted(t, smallStress(1), true), layer)
}

// TestPlantedWrongReferenceIsCounted plants a wrong reference fingerprint
// for one of two jobs: each pass must count it as a failed job, so the
// run is not correct and ok_frac drops to one half.
func TestPlantedWrongReferenceIsCounted(t *testing.T) {
	w := smallStress(2)
	p, err := w.pass(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]ref{}
	for _, j := range p.jobs {
		want[j.key] = ref{FP: fmt.Sprintf("%#016x", j.fp), Cycles: j.cycles}
	}
	want[p.jobs[1].key] = ref{FP: fmt.Sprintf("%#016x", p.jobs[1].fp^1), Cycles: p.jobs[1].cycles}
	r, err := runWorkload(context.Background(), w, want, quick)
	if err != nil {
		t.Fatal(err)
	}
	if r.verdict.correct() || r.verdict.attempted != 4 || r.verdict.failed != 2 {
		t.Fatalf("verdict %+v, want 2 of 4 failed", r.verdict)
	}
	if got := r.metrics["ok_frac"]; got != 0.5 {
		t.Fatalf("ok_frac = %v, want 0.5", got)
	}
}

// TestCountMetricsRepeat runs each workload (cut down) twice, traced, and
// requires every count metric to be identical: counts are host-
// independent, so only a change to the modelled design may move them.
func TestCountMetricsRepeat(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() workload
	}{
		{wlTable3, func() workload { return smallTable3(2) }},
		{wlStress, func() workload { return smallStress(1) }},
		{wlServed, func() workload { return smallServed(t, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := quick
			o.traced = true
			var runs [2]map[string]float64
			for i := range runs {
				r, err := runWorkload(context.Background(), tc.mk(), nil, o)
				if err != nil {
					t.Fatal(err)
				}
				if !r.verdict.correct() {
					t.Fatalf("run %d not correct: %+v", i, r.verdict)
				}
				runs[i] = r.metrics
			}
			defs := append([]metricDef{}, perLayer...)
			defs = append(defs, endToEnd...)
			nonzero := 0
			for _, d := range defs {
				if d.unit != "count" {
					continue
				}
				a, b := runs[0][d.name], runs[1][d.name]
				if a != b {
					t.Errorf("%s: %v then %v", d.name, a, b)
				}
				if a != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Error("every count metric read 0")
			}
		})
	}
}

func TestGroupOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cohesion/internal/cluster.(*Cluster).step":                             "cluster",
		"cohesion/internal/linetab.(*Table[go.shape.*cohesion/internal/x.y]).G": "linetab",
		"cohesion/internal/addr.Classify":                                       "other",
		"fmt.(*pp).doPrintf":                                                    "fmt",
		"crypto/sha256.block":                                                   "crypto",
		"syscall.Syscall6":                                                      "syscall",
		"internal/runtime/syscall.Syscall6":                                     "syscall",
		"internal/poll.(*FD).Write":                                             "syscall",
		"net/http.(*conn).serve":                                                "net_http",
		"cohesion/internal/event.New[...]":                                      "event",
		"runtime.mallocgc":                                                      "go_runtime",
		"internal/runtime/maps.(*Map).getWithKey":                               "go_runtime",
		"encoding/json.(*encodeState).marshal":                                  "encoding_json",
		"cohesion.(*preparedRun).run":                                           "other",
		"main.burn":                                                             "other",
	} {
		if got := groupOf(fn); got != want {
			t.Errorf("groupOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUProfileDecodes profiles the table3 workload briefly and checks
// the decoded self time lands in the simulator's packages.
func TestCPUProfileDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	w := smallTable3(1)
	t0 := time.Now()
	for time.Since(t0) < 500*time.Millisecond {
		if _, err := w.pass(context.Background(), nil, nil); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	cpu, err := cpuByGroup(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, g := range cpuGroups {
		known[g] = true
	}
	sim := 0
	for g, ns := range cpu {
		if !known[g] {
			t.Errorf("decoded group %q is not in cpuGroups", g)
		}
		for _, s := range simGroups {
			if g == s && g != "go_runtime" && ns > 0 {
				sim++
			}
		}
	}
	if sim < 3 {
		t.Fatalf("decoded %v: self time in only %d simulator packages", cpu, sim)
	}
}

// TestCPUProfileLeavesOutCalibration profiles calibration samples alone:
// the decoded self time must leave the calibration loop out, so the
// cpu.* shares of a traced run are of the workload's own time.
func TestCPUProfileLeavesOutCalibration(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	c := &calibration{chunk: 1_000_000}
	for c.wall < 300*time.Millisecond {
		c.gap()
	}
	pprof.StopCPUProfile()
	cpu, err := cpuByGroup(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var kept float64
	for _, ns := range cpu {
		kept += ns
	}
	if kept > 0.2*float64(c.cpu) {
		t.Errorf("decoded %v ns of %v of calibration", kept, c.cpu)
	}
	if s := c.scale(); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("scale %v after %d iterations in %v", s, c.iters, c.cpu)
	}
}
