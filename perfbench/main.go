// Command perfbench is the repository benchmark: it runs the Kali
// runtime on three workloads drawn from the paper's evaluation (§4,
// Figures 4 and 7–10) on the wall-clock backend, checks every result
// against a sequential or solo oracle, and prints the end-to-end
// metrics (or, with -trace 1, the per-layer metrics) as one JSON
// object on the last line of standard output.
//
// Run it from the repository root through its wrapper, which builds
// the binary first:
//
//	bash perfbench/run.sh --workload relax-unstructured --seed 1 --seconds 10 --trace 0
//
// Workloads: relax-unstructured (Figure 4 Jacobi on a shuffled
// unstructured mesh, run-time inspector), grid2d-adi (two-field
// five-point Jacobi with compile-time schedules, fused loop windows and
// row/column transposes) and tenants-http (the schedule server under
// an open-loop and a closed-loop HTTP load).  README.md in this
// directory documents the metrics and the layers each one measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runConfig is one benchmark invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every input to a size that runs in well under a
	// second (the benchmark's own tests use it).
	tiny bool
	// corpus is the directory of .kali programs tenants-http draws
	// requests from.
	corpus string
	// corrupt deliberately damages one computed result before it is
	// checked, so tests can show the check catches it.
	corrupt bool
	// log receives human-readable progress and host facts.
	log io.Writer
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload measured: operations attempted and
// failed (a failed operation's timings are discarded), the end-to-end
// metrics, the per-layer metrics (traced runs only), facts about the
// load, and the spans recorded.
type outcome struct {
	attempted, failed int
	endToEnd          map[string]metric
	layers            map[string]metric
	facts             map[string]any
	spans             *tracer
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]metric{}, layers: map[string]metric{}, facts: map[string]any{}}
}

func (o *outcome) e2e(name string, v float64, unit string)   { o.endToEnd[name] = metric{v, unit} }
func (o *outcome) layer(name string, v float64, unit string) { o.layers[name] = metric{v, unit} }

// endToEndUnits names every end-to-end metric every workload reports,
// with its unit; BENCHMARK.json lists the same set.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"updates_per_s": "1/s",
	"run_ms_p50":    "ms",
	"run_ms_p75":    "ms",
	"runs_per_s":    "1/s",
	"peak_rss_mb":   "MB",
}

// layerUnits names every per-layer metric a traced run reports.  A
// layer a workload bypasses reports 0 (README.md lists which).
var layerUnits = map[string]string{
	"forall.build_s":                   "s",
	"forall.builds":                    "count",
	"forall.cache_hits":                "count",
	"forall.schedule_kb":               "kB",
	"forall.exec_ns_per_update":        "ns",
	"forall.seq_self_ns_per_update":    "ns",
	"forall.nonlocal_iter_frac":        "ratio",
	"forall.overhead_x":                "x",
	"kernel.seq_ns_per_update":         "ns",
	"darray.redist_ms_per_step":        "ms",
	"darray.redist_plan_builds":        "count",
	"darray.redist_plan_hits":          "count",
	"machine.msgs_per_step":            "count",
	"machine.bytes_per_step":           "B",
	"machine.redist_bytes_per_step":    "B",
	"machine.fused_msgs_per_step":      "count",
	"machine.barrier_wait_ms_per_step": "ms",
	"step.self_ms_per_step":            "ms",
	"comm.pool_news_per_step":          "count",
	"comm.pool_hit_ratio":              "ratio",
	"go.allocs_per_step":               "count",
	"go.gc_cycles":                     "count",
	"lang.parse_us":                    "us",
	"lang.check_us":                    "us",
	"lang.run_ms":                      "ms",
	"server.handler_ms_p50":            "ms",
	"server.wire_ms_p50":               "ms",
	"server.store_hit_ratio":           "ratio",
	"server.store_waits":               "count",
	"loadgen.late_ms_p99":              "ms",
	"sim.exec_err_pct":                 "%",
	"trace.overhead_pct":               "%",
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"relax-unstructured": runRelax,
	"grid2d-adi":         runGrid,
	"tenants-http":       runTenants,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: relax-unstructured, grid2d-adi or tenants-http")
		seed     = flag.Int64("seed", 1, "input seed (mesh shuffle, field values, request mix)")
		seconds  = flag.Float64("seconds", 10, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1,
		corpus: filepath.Join("internal", "lang", "testdata"), log: os.Stderr}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	out.facts["workload"] = *workload
	if cfg.trace {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", *workload, *seed))
		if err := out.spans.writeChrome(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		out.facts["trace_file"] = path
	}
	res, err := out.result(cfg.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	facts, _ := json.Marshal(map[string]any{"facts": out.facts})
	fmt.Println(string(facts))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result assembles the contract line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.  A missing
// metric is a benchmark bug, reported as an error.
func (o *outcome) result(traced bool) (result, error) {
	want, have := endToEndUnits, o.endToEnd
	if traced {
		want, have = layerUnits, o.layers
	}
	res := result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for name, unit := range want {
		m, ok := have[name]
		if !ok && o.failed > 0 {
			// Every operation failed its check, so nothing was timed.
			m, ok = metric{0, unit}, true
		}
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", name)
		}
		if m.Unit != unit {
			return res, fmt.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
		res.Metrics[name] = m
	}
	return res, nil
}

// hostFacts records the host and load facts every result carries.
func hostFacts(o *outcome, cfg runConfig) {
	o.facts["nproc"] = runtime.NumCPU()
	o.facts["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.facts["go_version"] = runtime.Version()
	o.facts["l2_cache"] = cacheSize(2)
	o.facts["l3_cache"] = cacheSize(3)
	o.facts["seed"] = cfg.seed
	o.facts["seconds"] = cfg.seconds
	o.facts["traced"] = cfg.trace
}

// cacheSize reads the size of cpu0's level-n cache from sysfs
// ("unknown" where the host does not expose it).
func cacheSize(level int) string {
	for idx := 0; idx < 8; idx++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", idx)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(dir + "type")
		if strings.TrimSpace(string(lv)) == fmt.Sprint(level) && strings.TrimSpace(string(typ)) != "Instruction" {
			if sz, err := os.ReadFile(dir + "size"); err == nil {
				return strings.TrimSpace(string(sz))
			}
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// resetPeakRSS restarts the kernel's resident-memory peak, so the next
// peakRSSMB covers only what ran since.  Where the kernel refuses, the
// peak stays the process's lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
