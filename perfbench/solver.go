package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"kali/internal/core"
	"kali/internal/darray"
	"kali/internal/forall"
	"kali/internal/machine"
)

// solverProcs is the node count of the solver workloads: one pinned
// wall-clock thread per core of a 2-core host.  No workload runs more
// wall threads than that.
const solverProcs = 2

// minTrials is the fewest trials a solver run makes, so set-up time and
// memory are always medians of several trials.
const minTrials = 5

// costModel is the machine preset both backends are configured with;
// the wall backend measures, the sim backend predicts from it.
var costModel = machine.IPSC2()

// solverSpec describes one solver workload to the shared harness.
type solverSpec struct {
	steps          int     // steps per trial; the oracle ran exactly this many
	updatesPerStep float64 // grid points × fields × sweeps in one step
	arrayBytes     int     // bytes of distributed array data, all nodes
	want           [][]float64
	kernelNS       float64 // sequential oracle time per update
	// program returns one trial's SPMD program.  It must call
	// t.stepDone at the end of every step and fill t.got.
	program func(t *trial) func(ctx *core.Context)
	// schedules names the loops whose schedules the layer metrics sum.
	schedules []string
}

// trial is one core.Run of a solver: set-up, steps, gather.
type trial struct {
	spec    *solverSpec
	tr      *tracer
	traced  bool
	t0      time.Time
	stepEnd []time.Time // node 0's clock after each step-end barrier
	got     [][]float64 // gathered result fields, filled by the program

	// Per-node snapshots after step 1 and after the last step, and the
	// schedule statistics each node read at the end (traced runs).
	first, last     []machine.Stats
	schedBytes      []int
	local, nonlocal []int
	// Process-wide snapshots over the same window (traced runs).
	mallocs, gcs     [2]uint64
	poolGets, poolNs [2]int64
	// Redistribution plans built and replayed during the whole trial.
	redistBuilds, redistHits int
}

func newTrial(spec *solverSpec, tr *tracer) *trial {
	t := &trial{spec: spec, tr: tr, traced: tr != nil,
		stepEnd: make([]time.Time, spec.steps+1),
		first:   make([]machine.Stats, solverProcs), last: make([]machine.Stats, solverProcs),
		schedBytes: make([]int, solverProcs), local: make([]int, solverProcs), nonlocal: make([]int, solverProcs),
	}
	for _, w := range spec.want {
		t.got = append(t.got, make([]float64, len(w)))
	}
	return t
}

// span times one layer call made by node ctx in step s.
func (t *trial) span(ctx *core.Context, name string, s int, call func()) {
	b := t.tr.begin()
	call()
	t.tr.end(name, ctx.ID(), int64(s), 1, b)
}

// stepDone ends step s (begun at start) with the step-end barrier and
// takes the steady-state snapshots after the first and last steps.
func (t *trial) stepDone(ctx *core.Context, s int, start time.Time) {
	me := ctx.ID()
	t.span(ctx, "machine.Barrier", s, ctx.Barrier)
	if me == 0 {
		t.stepEnd[s] = time.Now()
	}
	t.tr.end("step", me, int64(s), 0, start)
	if !t.traced || (s != 1 && s != t.spec.steps) {
		return
	}
	k := 0
	if s == t.spec.steps {
		k = 1
		t.last[me] = ctx.Node.Stats()
		// Loops with the same structure share one content-addressed
		// schedule; count each schedule once.
		seen := map[*forall.Schedule]bool{}
		for _, name := range t.spec.schedules {
			sc := ctx.Eng.Schedule(name)
			if sc == nil {
				sc = ctx.Eng.Schedule2(name)
			}
			if sc != nil && !seen[sc] {
				seen[sc] = true
				t.schedBytes[me] += sc.MemBytes()
				t.local[me] += sc.LocalIters()
				t.nonlocal[me] += sc.NonlocalIters()
			}
		}
	} else {
		t.first[me] = ctx.Node.Stats()
	}
	// Barrier-bracketed so the process-wide counters see exactly the
	// steady steps between the two snapshots.
	ctx.Barrier()
	if me == 0 {
		var mst runtime.MemStats
		runtime.ReadMemStats(&mst)
		p := forall.PayloadPoolStats()
		t.mallocs[k], t.gcs[k] = mst.Mallocs, uint64(mst.NumGC)
		t.poolGets[k], t.poolNs[k] = p.Gets, p.News
	}
	ctx.Barrier()
}

// setup is the wall time from the start of core.Run to the end of
// the first step.
func (t *trial) setup() time.Duration { return t.stepEnd[1].Sub(t.t0) }

// steadySteps returns the durations of steps 2..steps.
func (t *trial) steadySteps() []time.Duration {
	var ds []time.Duration
	for s := 2; s <= t.spec.steps; s++ {
		ds = append(ds, t.stepEnd[s].Sub(t.stepEnd[s-1]))
	}
	return ds
}

// check compares the gathered fields with the oracle bit for bit.
func (t *trial) check() error {
	for f, want := range t.spec.want {
		for i, w := range want {
			if g := t.got[f][i]; math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Errorf("field %d element %d: got %v, oracle %v", f, i+1, g, w)
			}
		}
	}
	return nil
}

// runTrial executes one trial on a fresh P-node machine of backend.
func runTrial(spec *solverSpec, backend string, tr *tracer) (*trial, core.Report) {
	t := newTrial(spec, tr)
	b0, h0 := darray.RedistBuilds(), darray.RedistHits()
	t.t0 = time.Now()
	rep := core.Run(core.Config{P: solverProcs, Params: costModel, Backend: backend}, spec.program(t))
	t.redistBuilds, t.redistHits = darray.RedistBuilds()-b0, darray.RedistHits()-h0
	return t, rep
}

// phase is the measurement of one run of solver trials.
type phase struct {
	trials  []*trial
	reports []core.Report
	setups  []float64 // seconds
	rss     []float64 // peak resident MB of each of the first minTrials trials
	// Per trial: median and 75th-percentile steady step milliseconds.
	p50, p75 []float64
}

// measureSolver repeats checked trials until seconds have passed (and
// at least minTrials ran).  A trial whose result differs from the
// oracle counts as failed and contributes no timing.
func measureSolver(spec *solverSpec, cfg runConfig, o *outcome, seconds float64, tr *tracer) *phase {
	ph := &phase{}
	start := time.Now()
	for n := 0; n < minTrials || time.Since(start).Seconds() < seconds; n++ {
		// Each trial starts from a collected heap, outside every timed
		// interval.  Memory is the median peak of a fixed amount of
		// work, the first minTrials trials.
		runtime.GC()
		resetPeakRSS()
		t, rep := runTrial(spec, "wall", tr)
		if n < minTrials {
			ph.rss = append(ph.rss, peakRSSMB())
		}
		if cfg.corrupt && n == 0 {
			t.got[0][len(t.got[0])/2] += 1
		}
		o.attempted++
		err := t.check()
		t.got = nil // checked; kept trials must not hold their results
		if err != nil {
			o.failed++
			fmt.Fprintf(cfg.log, "trial %d: WRONG ANSWER: %v\n", n, err)
			continue
		}
		ph.trials = append(ph.trials, t)
		ph.reports = append(ph.reports, rep)
		ph.setups = append(ph.setups, t.setup().Seconds())
		var steps []float64
		for _, d := range t.steadySteps() {
			steps = append(steps, ms(d))
		}
		ph.p50 = append(ph.p50, quantile(steps, 0.5))
		ph.p75 = append(ph.p75, quantile(steps, 0.75))
	}
	return ph
}

// report fills the end-to-end metrics from a phase.  A solver "run" is
// one steady step.  Each timing is the median over trials of the
// trial's own statistic, which a slow spell of the host (stolen CPU
// time) during a few trials does not move.
func (ph *phase) report(spec *solverSpec, o *outcome) {
	if len(ph.trials) == 0 {
		return
	}
	p50 := median(ph.p50)
	o.e2e("setup_s", median(ph.setups), "s")
	o.e2e("runs_per_s", 1e3/p50, "1/s")
	o.e2e("updates_per_s", 1e3/p50*spec.updatesPerStep, "1/s")
	o.e2e("run_ms_p50", p50, "ms")
	o.e2e("run_ms_p75", median(ph.p75), "ms")
	o.e2e("peak_rss_mb", median(ph.rss), "MB")
}

// runSolver runs a solver workload.  Untraced, it measures the
// end-to-end metrics for cfg.seconds.  Traced, it spends half the time
// untraced and half traced, reports the per-layer metrics from the
// traced half and the tracing overhead as the difference, and adds a
// sim-backend prediction run.
func runSolver(spec *solverSpec, cfg runConfig) (*outcome, error) {
	o := newOutcome()
	hostFacts(o, cfg)
	o.facts["P"] = solverProcs
	o.facts["backend"] = "wall"
	o.facts["array_bytes"] = spec.arrayBytes
	o.facts["steps_per_trial"] = spec.steps
	o.facts["updates_per_step"] = spec.updatesPerStep
	if !cfg.trace {
		ph := measureSolver(spec, cfg, o, cfg.seconds, nil)
		ph.report(spec, o)
		o.facts["trials"] = len(ph.trials)
		o.facts["steady_steps"] = len(ph.trials) * (spec.steps - 1)
		return o, nil
	}
	plain := measureSolver(spec, cfg, o, cfg.seconds/2, nil)
	o.spans = newTracer()
	traced := measureSolver(spec, cfg, o, cfg.seconds/2, o.spans)
	traced.report(spec, o)
	if len(plain.trials) == 0 || len(traced.trials) == 0 {
		return o, nil
	}
	solverLayers(spec, traced, o)
	o.layer("kernel.seq_ns_per_update", spec.kernelNS, "ns")
	o.layer("forall.overhead_x", o.layers["forall.exec_ns_per_update"].Value/spec.kernelNS, "x")
	o.layer("trace.overhead_pct", 100*(median(traced.p50)/median(plain.p50)-1), "%")

	// Cost-model error: how far the sim backend's predicted executor
	// and redistribution time per step is from the measured one.
	simStart := time.Now()
	_, simRep := runTrial(spec, "sim", nil)
	o.facts["sim_trial_s"] = time.Since(simStart).Seconds()
	var measured []float64
	for _, r := range traced.reports {
		measured = append(measured, r.Executor+r.Redist)
	}
	predicted := simRep.Executor + simRep.Redist
	o.layer("sim.exec_err_pct", 100*math.Abs(predicted/median(measured)-1), "%")
	o.facts["sim_model"] = costModel.Name
	for _, n := range []string{"lang.parse_us", "lang.check_us", "lang.run_ms", "server.handler_ms_p50",
		"server.wire_ms_p50", "server.store_hit_ratio", "server.store_waits", "loadgen.late_ms_p99"} {
		o.layer(n, 0, layerUnits[n])
	}
	return o, nil
}

// solverLayers derives the per-layer metrics of the traced trials.
// Counts come from the first traced trial (they repeat exactly from
// trial to trial); times are medians over trials or means over steady
// steps.
func solverLayers(spec *solverSpec, ph *phase, o *outcome) {
	t, rep := ph.trials[0], ph.reports[0]
	steady := float64(spec.steps - 1)
	updates := float64(spec.steps) * spec.updatesPerStep

	var build, exec []float64
	for _, r := range ph.reports {
		build = append(build, r.Inspector)
		exec = append(exec, r.Executor/updates*1e9)
	}
	o.layer("forall.build_s", median(build), "s")
	o.layer("forall.builds", float64(rep.Builds), "count")
	o.layer("forall.cache_hits", float64(rep.SharedHits+rep.StoreHits), "count")
	o.layer("forall.exec_ns_per_update", median(exec), "ns")

	var d machine.Stats
	sched, local, nonlocal := 0, 0, 0
	for me := 0; me < solverProcs; me++ {
		d = d.Add(t.last[me].Sub(t.first[me]))
		sched += t.schedBytes[me]
		local += t.local[me]
		nonlocal += t.nonlocal[me]
	}
	o.layer("forall.schedule_kb", float64(sched)/1024, "kB")
	o.layer("forall.nonlocal_iter_frac", ratio(float64(nonlocal), float64(local+nonlocal)), "ratio")
	o.layer("machine.msgs_per_step", float64(d.MsgsSent)/steady, "count")
	o.layer("machine.bytes_per_step", float64(d.BytesSent)/steady, "B")
	o.layer("machine.redist_bytes_per_step", float64(d.RedistBytesSent)/steady, "B")
	o.layer("machine.fused_msgs_per_step", float64(d.FusedMsgsSent)/steady, "count")
	gets, news := float64(t.poolGets[1]-t.poolGets[0]), float64(t.poolNs[1]-t.poolNs[0])
	o.layer("comm.pool_news_per_step", news/steady, "count")
	o.layer("comm.pool_hit_ratio", ratio(gets-news, gets), "ratio")
	o.layer("go.allocs_per_step", float64(t.mallocs[1]-t.mallocs[0])/steady, "count")
	o.layer("go.gc_cycles", float64(t.gcs[1]-t.gcs[0]), "count")
	o.layer("darray.redist_plan_builds", float64(t.redistBuilds), "count")
	o.layer("darray.redist_plan_hits", float64(t.redistHits), "count")

	// Span times over the steady steps of every traced trial, per node.
	self := o.spans.selfTimes()
	perNodeStep := float64(solverProcs) * steady * float64(len(ph.trials))
	stepSum := func(name string) float64 {
		var sum time.Duration
		for _, s := range o.spans.spans {
			if s.name == name && s.id >= 2 {
				sum += s.end - s.start
			}
		}
		return ms(sum) / perNodeStep
	}
	o.layer("darray.redist_ms_per_step", stepSum("darray.Redistribute"), "ms")
	o.layer("machine.barrier_wait_ms_per_step", stepSum("machine.Barrier"), "ms")
	o.layer("forall.seq_self_ns_per_update", stepSum("forall.ForallSeq")*1e6/spec.updatesPerStep, "ns")
	o.layer("step.self_ms_per_step", ms(self["step"])/(float64(solverProcs)*float64(spec.steps)*float64(len(ph.trials))), "ms")
}

// ratio returns a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
