// Command perfbench is the repository benchmark. One invocation runs one
// seeded workload in process, checks the program's outputs against
// contracts the repository already enforces, and prints the metrics
// named in BENCHMARK.json; the last line of standard output is a JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
// Workloads:
//
//	pipeline     the paper pipeline: Table V collection on the 6-core
//	             Xeon E5649, then repeated random sub-sampling of
//	             linear-F, neural-net-A and neural-net-F.
//	serve-hot    one serve.Server driven through Handler() in process,
//	             closed loop, Zipf-skewed homogeneous scenarios that fit
//	             the prediction cache.
//	fleet-mixed  colorouter in front of three coloserve backends over
//	             loopback HTTP, closed loop, uniformly drawn mixed
//	             co-runner sets (cache mostly misses), with predicts,
//	             batches, durable observations and placements.
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// no benchmark instrumentation. With --trace 1 it runs an untraced half
// and a traced half of the same length, reports the per-layer metrics
// from the traced half, and the tracing overhead as their difference.
//
// Build and run from the repository root with
//
//	bash perfbench/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string
}

// outcome is what a workload run produces: metric values by name, the
// work counts, the output checks and (traced runs) the recorded spans.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	checks    []checkResult
	spans     []span
	// info holds report-only facts (no metric), such as the scenario
	// space size or the number of setup repetitions.
	info map[string]any
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, info: map[string]any{}}
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"pipeline":    runPipeline,
	"serve-hot":   runServeHot,
	"fleet-mixed": runFleetMixed,
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: pipeline, serve-hot or fleet-mixed")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics, 1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench-out", "directory for the run report, span dump and scratch files")
	flag.Parse()
	if err := run(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, trace int) error {
	wl, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want pipeline, serve-hot or fleet-mixed)", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if !(cfg.seconds > 0) {
		return fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	started := time.Now()
	out, err := wl(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if !cfg.trace {
		out.values["max_rss_mb"] = maxRSSMB()
	}

	defs := metricsFor(cfg.trace)
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", cfg.workload, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = len(out.checks) > 0
	for _, c := range out.checks {
		res.Correct = res.Correct && c.Passed && c.PerturbedFailed
	}
	if res.Attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", cfg.workload)
	}

	rep := report{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Machine: machineRecord(started), WallS: time.Since(started).Seconds(),
		Result: res, Checks: out.checks, Info: out.info, Notes: notesFor(cfg.workload, defs),
	}
	printReport(rep, defs, out.values)
	name := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, trace)
	if err := writeJSON(filepath.Join(cfg.outDir, name+".json"), rep); err != nil {
		return err
	}
	if cfg.trace {
		if err := writeSpans(filepath.Join(cfg.outDir, name+"-spans.jsonl.gz"), out.spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result is the final stdout line the benchmark contract requires.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full record of one run, written beside the span dump.
type report struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Machine  machine        `json:"machine"`
	WallS    float64        `json:"wall_s"`
	Result   result         `json:"result"`
	Checks   []checkResult  `json:"checks"`
	Info     map[string]any `json:"info"`
	Notes    []string       `json:"notes"`
}

// machine is the record every result carries so that numbers from
// different hosts or commits are never compared blind.
type machine struct {
	GitSHA     string `json:"git_sha"`
	Date       string `json:"date"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func machineRecord(at time.Time) machine {
	m := machine{
		GitSHA: "unknown", Date: at.UTC().Format(time.RFC3339),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", GoVersion: runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.GitSHA = s.Value
			}
		}
	}
	// The CPU model is advisory; a host without /proc/cpuinfo reports
	// "unknown".
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// maxRSSMB is the process's peak resident set size in MiB. Runs also
// record it just before the measured segment (info
// max_rss_mb_before_measure), so a report shows how much of the peak
// the set-up and input generation already reached.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func printReport(rep report, defs []metricDef, values map[string]float64) {
	m := rep.Machine
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Printf("machine: sha=%s date=%s gomaxprocs=%d nproc=%d cpu=%q go=%s\n",
		m.GitSHA, m.Date, m.GOMAXPROCS, m.NumCPU, m.CPUModel, m.GoVersion)
	keys := make([]string, 0, len(rep.Info))
	for k := range rep.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("info %s = %v\n", k, rep.Info[k])
	}
	for _, c := range rep.Checks {
		fmt.Printf("check %-24s passed=%v perturbed_failed=%v %s\n", c.Name, c.Passed, c.PerturbedFailed, c.Detail)
	}
	for _, d := range defs {
		fmt.Printf("metric %-32s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
	for _, n := range rep.Notes {
		fmt.Println("note", n)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
