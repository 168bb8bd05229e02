package main

import (
	"io"
	"testing"
)

// tinyConfig runs a workload at its tiny size for one second.
func tinyConfig() runConfig {
	return runConfig{seed: 7, seconds: 1, tiny: true, corpus: "../internal/lang/testdata", log: io.Discard}
}

// TestTinyRunsEmitEveryMetric runs every workload untraced and traced
// at a tiny size: each must pass its oracle check and emit every
// end-to-end (untraced) or per-layer (traced) metric with its unit.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig()
			cfg.trace = traced
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res, err := out.result(traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEndUnits
			if traced {
				want = layerUnits
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for m, unit := range want {
				if got := res.Metrics[m]; got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, want %q", name, traced, m, got.Unit, unit)
				}
			}
			if !traced {
				for m, v := range res.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, v.Value)
					}
				}
			}
		}
	}
}

// TestCorruptedResultIsCaught damages one result per workload: the
// oracle check must count it as failed, mark the run incorrect, and
// keep it out of the timings.
func TestCorruptedResultIsCaught(t *testing.T) {
	for _, name := range workloadNames() {
		cfg := tinyConfig()
		cfg.corrupt = true
		out, err := workloads[name](cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := out.result(false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: correct=%v failed=%d after one corrupted result, want false and 1", name, res.Correct, res.Failed)
		}
		if trials, ok := out.facts["trials"].(int); ok && trials != res.Attempted-res.Failed {
			t.Errorf("%s: %d trials timed, want %d (the corrupted one excluded)", name, trials, res.Attempted-res.Failed)
		}
	}
}

// TestQuantile pins the interpolation the latency percentiles use.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.99, 4.96}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestSelfTimes checks that a parent span's self time excludes its
// children on the same lane and nothing on other lanes.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "step", lane: 0, depth: 0, start: 0, end: 100},
		{name: "call", lane: 0, depth: 1, start: 10, end: 40},
		{name: "call", lane: 0, depth: 1, start: 50, end: 60},
		{name: "call", lane: 1, depth: 1, start: 20, end: 90},
	}}
	self := tr.selfTimes()
	if self["step"] != 60 || self["call"] != 110 {
		t.Errorf("self times %v, want step 60 and call 110", self)
	}
}
