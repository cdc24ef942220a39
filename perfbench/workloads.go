package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"cohesion"
	"cohesion/internal/stats"
	"cohesion/internal/stress"
)

// job is the outcome of one unit of work in a pass: a kernel simulation,
// a round of stress programs, or a served job. key names it in the
// reference data.
type job struct {
	key    string
	fp     uint64
	cycles uint64
	lat    time.Duration // wall-clock time
	cpu    time.Duration // process CPU time
	err    error
}

// pass is one full run of a workload's inputs.
type pass struct {
	wall, setup time.Duration
	cpu         time.Duration // process CPU time, which excludes steal
	setupCPU    time.Duration
	rssMB       float64 // peak resident set during the pass
	instr       uint64  // simulated instructions (stress: ops issued)
	events      uint64  // simulation events fired
	jobs        []job
	counts      counts
}

// workload runs its fixed inputs once per call. A non-nil tracer records
// spans and per-layer sums; a non-nil calibration is sampled after every
// job (outside the job's times, but inside the pass's). Job failures are
// reported in the jobs, and the error is for the harness itself failing.
type workload interface {
	pass(ctx context.Context, tr *tracer, cal *calibration) (pass, error)
}

// counts are the protocol work counts read from Result.Stats. They are
// host-independent and must repeat exactly for a seed.
type counts [len(countNames)]uint64

var countNames = [...]string{
	"cluster.l2_msgs", "cluster.l2_retries", "interconnect.net_msgs", "interconnect.net_bytes",
	"core.probes", "core.nacks", "directory.evictions", "dram.reads", "dram.writes",
	"region.transitions",
}

func (c *counts) add(s *stats.Run) {
	for i, v := range [...]uint64{
		s.TotalMessages(), s.L2Retries + s.NackRetries, s.NetMessages, s.NetBytes,
		s.ProbesSent, s.NacksSent, s.DirEvictions, s.DRAMReads, s.DRAMWrites,
		s.TransitionsToSW + s.TransitionsToHW,
	} {
		c[i] += v
	}
}

// derive maps the benchmark seed and an item label to the item's input
// seed, so the program sees only per-item seeds and items differ.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, label)
	return int64(h.Sum64() >> 2)
}

var modes = []cohesion.Mode{cohesion.SWcc, cohesion.HWcc, cohesion.Cohesion}

// table3Kernels runs the eight kernels under SWcc, HWcc and Cohesion on
// the paper's 1024-core Table 3 machine, scale 2, with output
// verification on and instrumentation off: the cohesion-sim -table3 wait.
type table3Kernels struct {
	runs []cohesion.RunConfig
}

func newTable3Kernels(seed int64) *table3Kernels {
	w := &table3Kernels{}
	for _, k := range cohesion.KernelNames() {
		// The three modes of a kernel share inputs, as in the paper.
		s := derive(seed, "table3/"+k)
		for _, m := range modes {
			w.runs = append(w.runs, cohesion.RunConfig{
				Machine: cohesion.Table3Config().WithMode(m),
				Kernel:  k, Scale: 2, Seed: s, Verify: true,
			})
		}
	}
	return w
}

func (w *table3Kernels) pass(ctx context.Context, tr *tracer, cal *calibration) (pass, error) {
	var ps pass
	start := time.Now()
	for _, rc := range w.runs {
		key := fmt.Sprintf("%s/%v", rc.Kernel, rc.Machine.Mode)
		t0, c0 := time.Now(), cpuTime()
		root := tr.begin("table3.run", 0, key)
		var (
			p   *cohesion.Prepared
			res *cohesion.Result
			err error
		)
		tr.call("cohesion.Prepare", root, key, func() { p, err = cohesion.Prepare(rc) })
		ps.setup += time.Since(t0)
		ps.setupCPU += cpuTime() - c0
		if err == nil {
			tr.call("Prepared.Simulate", root, key, func() { err = p.Simulate(ctx) })
		}
		if err == nil {
			tr.call("Prepared.Finalize", root, key, func() { res, err = p.Finalize() })
		}
		tr.end(root)
		j := job{key: key, lat: time.Since(t0), cpu: cpuTime() - c0, err: err}
		if res != nil {
			j.fp, j.cycles = res.MemFingerprint, res.Stats.Cycles
			ps.instr += res.Stats.Instructions
			ps.events += res.Stats.Events
			ps.counts.add(&res.Stats)
			tr.add("sim.events", float64(res.Stats.Events))
		}
		ps.jobs = append(ps.jobs, j)
		cal.gap()
	}
	ps.wall = time.Since(start)
	return ps, nil
}

// stressMix is the pressure batch of the repository's protocol-edge
// coverage gate, without its fixed seeds: tiny sparse directories with
// and without NACK-on-capacity, Dir4B pointer overflow, two MSHRs,
// injected faults, and contended domain flips.
var stressMix = []stress.Config{
	{Mode: "cohesion"},
	{Mode: "hwcc"},
	{Mode: "swcc", Lines: 64, OpsPerCore: 200},
	{Mode: "cohesion", Faults: true, OpsPerCore: 400},
	{Mode: "hwcc", Clusters: 6, WorkersPerCluster: 2, Lines: 4, OpsPerCore: 300, Dir: "dir4b"},
	{Mode: "hwcc", Lines: 8, Dir: "sparse", DirEntries: 4, DirAssoc: 2},
	{Mode: "hwcc", Lines: 8, Dir: "sparse", DirEntries: 4, DirAssoc: 2, NackOnCapacity: true},
	{Mode: "cohesion", MSHRs: 2},
	{Mode: "cohesion", Clusters: 4, Lines: 2, OpsPerCore: 300},
}

// stressRounds is how many differently seeded copies of the mix make up
// one pass: enough programs that no single seed dominates a pass.
const stressRounds = 8

// checkedStress generates and runs the stress mix with the online oracle
// on and one coverage tracker shared across each pass. Its job is one
// round of the mix, nine programs, so that job times come from one
// distribution rather than nine program sizes.
type checkedStress struct {
	rounds [][]stress.Config
}

func newCheckedStress(seed int64) *checkedStress {
	w := &checkedStress{}
	for r := 0; r < stressRounds; r++ {
		var round []stress.Config
		for i, c := range stressMix {
			c.Seed = derive(seed, fmt.Sprintf("stress/%d/%d", r, i))
			if c.Faults {
				c.FaultSeed = derive(seed, fmt.Sprintf("stress-faults/%d/%d", r, i))
			}
			round = append(round, c)
		}
		w.rounds = append(w.rounds, round)
	}
	return w
}

func (w *checkedStress) pass(ctx context.Context, tr *tracer, cal *calibration) (pass, error) {
	var ps pass
	cov := cohesion.NewCoverage()
	start := time.Now()
	for r, round := range w.rounds {
		key := fmt.Sprintf("round-%d", r)
		t0, c0 := time.Now(), cpuTime()
		root := tr.begin("stress.round", 0, key)
		j := job{key: key}
		for i, cfg := range round {
			var (
				p   stress.Program
				err error
			)
			s0, sc0 := time.Now(), cpuTime()
			tr.call("stress.Generate", root, key, func() { p, err = stress.Generate(cfg) })
			ps.setup += time.Since(s0)
			ps.setupCPU += cpuTime() - sc0
			var res stress.Result
			if err == nil {
				tr.call("stress.RunProgramOpts", root, key, func() {
					res = stress.RunProgramOpts(p, stress.RunOpts{Ctx: ctx, Coverage: cov})
				})
				err = res.Err
			}
			if err != nil && j.err == nil {
				j.err = fmt.Errorf("%s program %d (%s seed %d): %w", key, i, cfg.Mode, cfg.Seed, err)
			}
			for _, c := range p.Cores {
				ps.instr += uint64(len(c.Ops))
			}
			j.fp = (j.fp ^ res.Fingerprint) * 1099511628211 // FNV-1a over the programs' fingerprints
			j.cycles += res.Cycles
			ps.events += res.Events
			tr.add("stress.events", float64(res.Events))
			tr.add("oracle.checks", float64(res.Checks))
		}
		tr.end(root)
		j.lat, j.cpu = time.Since(t0), cpuTime()-c0
		ps.jobs = append(ps.jobs, j)
		cal.gap()
	}
	ps.wall = time.Since(start)
	if tr != nil {
		tr.add("cov.edges_covered", float64(cov.Covered()))
		for name, n := range cov.CountsByName() {
			group, _, _ := strings.Cut(name, ".")
			tr.add("cov."+group, float64(n))
		}
	}
	return ps, nil
}
