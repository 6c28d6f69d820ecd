// Command solverbench is the repository's end-to-end benchmark. It
// generates one workload's matrix from a seed, runs the user pipeline
// (core.Analyze → parmf factorization → TreeSolver solve) in a closed
// loop, checks every solution, and prints one JSON result as the last
// line of its standard output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash solverbench/run.sh --workload mesh-nd --seed 7 --seconds 55 --trace 0
//
// --trace 0 measures untraced operations and reports the end-to-end
// metrics; --trace 1 runs the traced pass and reports the per-layer
// metrics. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workers is the factorization and solve worker count of every run.
const workers = 2

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	small    bool
	dir      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: mesh-nd or circuit-ooc")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 55, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "0 = untraced end-to-end metrics, 1 = traced per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "directory for spill files and the span dump")
	flag.Parse()
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "solverbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "solverbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run, writing the header lines to out, and
// returns the result to print last.
func run(o options, out io.Writer) (result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return result{}, err
	}
	if o.trace != 0 && o.trace != 1 {
		return result{}, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	env := environment(w)
	if err := env.validate(); err != nil {
		return result{}, err
	}
	head, _ := json.Marshal(env)
	fmt.Fprintf(out, "env %s\n", head)

	spillDir := filepath.Join(o.dir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return result{}, err
	}
	t0 := time.Now()
	a, err := w.gen(rand.New(rand.NewSource(o.seed)), o.small)
	if err != nil {
		return result{}, fmt.Errorf("generate %s: %w", w.name, err)
	}
	gen := time.Since(t0)
	r := &runner{w: w, a: a, seed: o.seed, spillDir: spillDir}
	fmt.Fprintf(out, "matrix n=%d nnz=%d kind=%v generated in %.3fs\n", a.N, a.NNZ(), a.Kind, gen.Seconds())
	dur := time.Duration(o.seconds * float64(time.Second))
	steal0, total0 := hostCPU()
	defer func() {
		if steal1, total1 := hostCPU(); total1 > total0 {
			fmt.Fprintf(out, "host steal %.1f%% of CPU time during the run\n",
				100*float64(steal1-steal0)/float64(total1-total0))
		}
	}()
	if o.trace == 1 {
		spans := filepath.Join(o.dir, "traces", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		return tracedRun(r, gen, dur, spans, out)
	}
	return measure(r, dur, out), nil
}

// measure runs untraced operations in a closed loop for dur, after one
// unmeasured warm-up operation, and reports the end-to-end metrics.
func measure(r *runner, dur time.Duration, out io.Writer) result {
	var res result
	var setup, toSolution, factor, solve, stackPeak, residentPeak []float64
	var counts *core.Stats
	do := func(op, rounds int) (opTimes, bool) {
		res.Attempted++
		t, err := r.operation(op, rounds)
		if err == nil && counts != nil && *counts != t.stats {
			err = fmt.Errorf("analysis counts changed between operations: %+v then %+v", *counts, t.stats)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "operation %d failed: %v\n", op, err)
			return t, false
		}
		counts = &t.stats
		return t, true
	}
	do(0, 1)
	start := time.Now()
	for op := 1; op == 1 || time.Since(start) < dur; op++ {
		t, ok := do(op, r.w.rounds)
		if !ok {
			continue
		}
		setup = append(setup, t.setup.Seconds())
		toSolution = append(toSolution, t.toSolution.Seconds())
		for _, rr := range t.rounds {
			factor = append(factor, rr.factor.Seconds())
			solve = append(solve, rr.solve.Seconds())
			stackPeak = append(stackPeak, mb(rr.stats.PeakStack))
			residentPeak = append(residentPeak, mb(rr.stats.ResidentPeak))
		}
	}
	if counts != nil {
		fmt.Fprintf(out, "counts %s\n", countsLine(counts.FactorEntries, counts.Flops, counts.Fronts))
	}
	fmt.Fprintf(out, "measured %.1fs\n", time.Since(start).Seconds())
	res.Metrics = map[string]metric{
		"resident_peak_mb": {median(residentPeak), "MB"},
		"stack_peak_mb":    {median(stackPeak), "MB"},
	}
	for _, t := range []struct {
		name string
		v    []float64
	}{{"time_to_solution_s", toSolution}, {"setup_s", setup}, {"factor_s", factor}, {"solve_s", solve}} {
		med := median(t.v)
		fmt.Fprintf(out, "samples %s n=%d min=%.4f median=%.4f p90=%.4f max=%.4f\n",
			t.name, len(t.v), percentile(t.v, 0), med, percentile(t.v, 90), percentile(t.v, 100))
		res.Metrics[t.name] = metric{med, "s"}
	}
	res.Correct = res.Failed == 0
	return res
}

// countsLine renders the deterministic analysis counts that traced and
// untraced runs of one seed must agree on.
func countsLine(factorEntries, flops int64, fronts int) string {
	return fmt.Sprintf("factor_entries=%d flops=%d fronts=%d", factorEntries, flops, fronts)
}

// mb converts model entries (float64) to megabytes.
func mb(entries int64) float64 { return float64(entries) * 8 / 1e6 }

// env is the environment header printed before every result.
type env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	SIMD       string `json:"simd"`
	ReproSIMD  string `json:"repro_simd"`
	Workload   string `json:"workload"`
	Kernel     string `json:"kernel"`
	Workers    int    `json:"workers"`
}

func environment(w workload) env {
	return env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		SIMD:       dense.SIMDFeatures(),
		ReproSIMD:  os.Getenv("REPRO_SIMD"),
		Workload:   w.name,
		Kernel:     kernel.Resolve().String(),
		Workers:    workers,
	}
}

// validate refuses runs whose worker count the machine cannot back with
// a core each: more workers than CPUs, or a GOMAXPROCS below the worker
// count, would measure time-slicing instead of the solver.
func (e env) validate() error {
	switch {
	case e.Workers > e.NProc:
		return fmt.Errorf("%d workers exceed nproc=%d", e.Workers, e.NProc)
	case e.Workers > e.GOMAXPROCS:
		return fmt.Errorf("%d workers exceed GOMAXPROCS=%d", e.Workers, e.GOMAXPROCS)
	}
	return nil
}

// hostCPU returns the steal and total jiffies of the "cpu" line of
// /proc/stat, or zeros where it cannot be read. Steal is time the
// hypervisor gave to other guests while this one wanted its CPUs: a run
// with much of it was measured on a slowed host, and its timings say so
// more than the program's.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
