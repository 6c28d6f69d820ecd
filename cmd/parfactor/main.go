// Command parfactor runs the shared-memory parallel numeric
// factorization of one matrix and reports wall-clock time, per-worker
// memory peaks and scheduling statistics — optionally against a
// one-worker baseline (-seq) and next to an out-of-core run (-ooc).
//
// Usage:
//
//	parfactor -matrix NAME|-mm FILE [-ordering METIS|PORD|AMD|AMF|RCM]
//	          [-workers W] [-policy memory|depthfirst] [-split N]
//	          [-front-split N] [-block-rows N] [-root-grid N]
//	          [-slaves memory|workload] [-kernel FAMILY] [-bound ENTRIES]
//	          [-nrhs K] [-seq] [-small]
//	          [-ooc] [-budget ENTRIES] [-dir DIR] [-prefetch N]
//	          [-trace FILE] [-metrics FILE] [-pprof PREFIX]
//	          [-listen HOST:PORT] [-listen-linger D]
//	          [-timeout D] [-faults SPEC]
//
// The flags build one executor configuration and every run of the
// invocation uses it. -seq adds a one-worker run of the same
// factorization and prints the wall-clock speedup and the largest factor
// difference (0: static pivoting makes the factors independent of the
// worker count).
//
// -ooc adds an out-of-core run — factor blocks spilled to disk as they
// are produced — and compares the *measured* resident peaks of the two
// runs with the simulator's prediction. It makes the paper's concluding
// argument executable: factors are written once and not reaccessed
// before the solve phase, so the stack is the true resident cost.
// -budget sizes the resident spill buffer, -dir places the spill file and
// -prefetch sets the solve-phase read-ahead. The two runs' solutions are
// cross-checked (bitwise identical: the spill format round-trips float
// bits), and the spilled factors stream off disk exactly twice (one
// forward and one backward sweep) however many right-hand sides ride
// along.
//
// Fault tolerance: -timeout bounds the whole run with a context deadline
// (the worker pools and the spill writer drain deterministically and the
// tool exits nonzero with an error naming how far the run got), and
// -faults arms a deterministic fault-injection schedule (internal/faults
// grammar, e.g. 'task:error:5' or 'spill-write:error:2:3') for chaos
// testing. Transient spill-write failures are retried with exponential
// backoff; persistent ones degrade gracefully — the affected blocks stay
// resident and the run completes with identical numerics, reporting the
// retry and degraded-block counts. Other injected failures surface as
// descriptive errors, never hangs or leaked goroutines.
//
// Observability: -trace writes Chrome trace_event JSON of every run
// (task, front-phase, spill and solve spans per worker plus exact memory
// counter tracks; load in chrome://tracing or Perfetto), -metrics writes
// the aggregated counters snapshot (Prometheus text format, or JSON with
// a .json path) with the stats of the out-of-core run under -ooc and of
// the parallel in-core run otherwise, and -pprof captures CPU and heap
// profiles. -listen serves all of it live while the runs execute:
// /metrics (Prometheus scrape with progress, ETA and the resident gauge),
// /progress and /runs (JSON; during the out-of-core run /progress also
// carries the spill-store counters), /trace.json, /timeline.csv and
// /debug/pprof. -listen-linger keeps that server up after the run
// completes so scrapers can catch short runs.
//
// -matrix selects a problem from the paper's Table-1 suite by name
// (pattern-only analogues are given deterministic diagonally dominant
// values); -mm reads a MatrixMarket file instead.
//
// -front-split and -block-rows control the within-front (type-2) parallel
// path: fronts of at least -front-split rows are factored as a master task
// plus slave row-block tasks of -block-rows rows each, with the slave set
// chosen by -slaves (Algorithm 1 of the paper, or the MUMPS workload
// baseline). -root-grid controls the 2D (type-3) decomposition of split
// root fronts: the trailing rows *and* columns become -block-rows tiles
// assigned block-cyclically over a worker grid (0 = auto-sized from the
// worker count, -1 = keep roots on the 1D partition). In the default
// kernel mode the factors never depend on these knobs — the partitions
// are pure functions of the front and the register-blocked kernels are
// bitwise identical to the element-wise ones — only wall-clock time and
// the per-worker memory shape do. -kernel selects the update kernel
// family: fast reorders accumulation for full register tiling, simd runs
// the fused-multiply-add family (AVX2/FMA assembly with a bitwise
// identical portable fallback), and auto picks simd when the hardware
// path is available, fast otherwise. Both non-default families keep the
// factors deterministic for a fixed -block-rows (any worker count or
// grid shape) but are validated by residual rather than bit equality.
// Set -front-split larger than the largest front to disable splitting.
//
// The solve phase runs tree-parallel over the same workers and handles
// -nrhs right-hand sides as one blocked pass (one forward and one
// backward sweep over the factors in total); each column carries the
// exact bits of a sequential single-RHS solve.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/ooc"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("parfactor: ")
	var common cliflags.Common
	common.Register(flag.CommandLine)
	policy := flag.String("policy", "memory", "task selection: memory (Algorithm 2) or depthfirst")
	bound := flag.Int64("bound", 0, "per-worker memory bound in entries (0 = sequential peak)")
	seq := flag.Bool("seq", false, "also run on one worker: report speedup and cross-validate factors")
	oocRun := flag.Bool("ooc", false, "also run out-of-core: compare resident peaks with the simulator and cross-check the solves")
	budget := flag.Int64("budget", 0, "-ooc resident spill-buffer budget in entries (0 = factors/16)")
	dir := flag.String("dir", "", "-ooc spill directory (default: system temp dir)")
	prefetch := flag.Int("prefetch", 0, "-ooc solve-phase read-ahead in blocks (0 = 8)")
	flag.Parse()

	if err := common.Validate(); err != nil {
		log.Fatal(err)
	}
	if !*oocRun && (*budget != 0 || *dir != "" || *prefetch != 0) {
		log.Fatal("-budget, -dir and -prefetch need -ooc")
	}
	a, err := common.Load()
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := common.CoreConfig()
	if err != nil {
		log.Fatal(err)
	}
	obs, err := common.Observability()
	if err != nil {
		log.Fatal(err)
	}
	cfg.Tracer = obs.Tracer
	cfg.OOC = ooc.Options{Dir: *dir, BufferEntries: *budget, Prefetch: *prefetch}
	inj, _ := common.Injector() // validated above
	cfg.Faults = inj
	obs.SetFaults(inj)
	ctx, cancel := common.Context()
	defer cancel()
	// fatal routes run failures through the observability plane first: the
	// registered run flips to "failed" (visible through -listen-linger) and
	// the trace/metrics/profile outputs still get written for post-mortem.
	fatal := func(err error) {
		if errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("run exceeded -timeout %v: %w", common.Timeout, err)
		}
		obs.Abort(err, memory.ExecStats{})
		log.Fatal(err)
	}
	an, err := core.Analyze(a, cfg)
	if err != nil {
		fatal(err)
	}
	st := an.Stats()
	fmt.Printf("matrix:    n=%d nnz=%d %v\n", st.N, st.NNZ, a.Kind)
	fmt.Printf("analysis:  %d fronts, max front %d, %d split; factors %d entries, sequential peak %d entries\n",
		st.Fronts, st.MaxFront, st.SplitCount, st.FactorEntries, st.SeqPeak)

	pcfg := parmf.DefaultConfig(common.Workers)
	pcfg.PeakBound = *bound
	switch strings.ToLower(*policy) {
	case "memory":
		pcfg.Policy = parmf.MemoryAware
	case "depthfirst":
		pcfg.Policy = parmf.DepthFirst
	default:
		log.Fatalf("unknown policy %q", *policy)
	}
	pcfg.SlavePolicy, _ = common.SlavePolicy() // validated above

	t0 := time.Now()
	pf, err := an.FactorizeParallelCtx(ctx, pcfg)
	if err != nil {
		fatal(err)
	}
	parT := time.Since(t0)
	s := pf.Stats
	fmt.Printf("parallel:  %d workers, policy %v, kernels %s, %.3fs wall\n",
		s.Workers, pcfg.Policy, s.Kernel, parT.Seconds())
	fmt.Printf("  factors          %d entries\n", s.FactorEntries)
	fmt.Printf("  max worker peak  %d entries (bound %d)\n", s.PeakStack, s.PeakBound)
	for w, p := range s.WorkerPeaks {
		fmt.Printf("  worker %-2d        peak %d entries (stack-only %d)\n", w, p, s.WorkerStackPeaks[w])
	}
	fmt.Printf("  deviations %d, waits %d, forced %d\n", s.Deviations, s.Waits, s.Forced)
	fmt.Printf("  within-front     %d split fronts, %d slave tasks (%d stolen), slaves=%v, block-rows=%d\n",
		s.SplitFronts, s.SlaveTasks, s.SlaveSteals, pcfg.SlavePolicy, common.BlockRows)
	if s.Root2DFronts > 0 {
		fmt.Printf("  type-3 root      %d front(s) on a 2D tile grid, %.3fs in the root front\n",
			s.Root2DFronts, float64(s.RootFrontNs)/1e9)
	} else if s.RootFrontNs > 0 {
		fmt.Printf("  root front       1D split, %.3fs\n", float64(s.RootFrontNs)/1e9)
	}

	rng := rand.New(rand.NewSource(1))
	b := make([]float64, a.N*common.NRHS)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	t0 = time.Now()
	x, err := pf.Solver(0).SolveOriginalMultiCtx(ctx, b, common.NRHS)
	if err != nil {
		fatal(err)
	}
	solveT := time.Since(t0)
	fmt.Printf("  solve            %.3fs wall for %d rhs (%.2f ms/rhs), residual %.3g\n",
		solveT.Seconds(), common.NRHS, solveT.Seconds()*1e3/float64(common.NRHS),
		residual(a, x, b, common.NRHS))

	if *seq {
		one := pcfg
		one.Workers = 1
		t0 = time.Now()
		sf, err := an.FactorizeParallelCtx(ctx, one)
		if err != nil {
			fatal(err)
		}
		seqT := time.Since(t0)
		fmt.Printf("sequential: %.3fs wall on 1 worker, peak %d entries\n", seqT.Seconds(), sf.Stats.PeakStack)
		fmt.Printf("  speedup          %.2fx\n", seqT.Seconds()/parT.Seconds())
		fmt.Printf("  max factor diff  %.3g\n", maxFactorDiff(an, sf, pf))
	}

	final := pf.Stats.ExecStats
	if *oocRun {
		final = runOOC(ctx, an, pcfg, obs, fatal, pf.Stats.ResidentPeak, x, b, common.NRHS)
	}
	if err := obs.Finish(final); err != nil {
		log.Fatalf("observability outputs: %v", err)
	}
}

// runOOC factors and solves once more with the factor blocks spilled to
// disk, prints the measured resident peaks of the in-core and
// out-of-core runs next to the simulator's prediction, the spill
// statistics and the in-core/out-of-core solution difference, and
// returns the out-of-core run's stats.
func runOOC(ctx context.Context, an *core.Analysis, pcfg parmf.Config, obs *cliflags.Obs, fatal func(error),
	inPeak int64, xIn, b []float64, nrhs int) memory.ExecStats {
	// Simulator prediction for the same processor count: the in-core total
	// peak vs the stack-only peak that remains resident out-of-core.
	sim, err := an.Simulate(parsim.MemoryBased())
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	of, store, err := an.FactorizeParallelOOCCtx(ctx, pcfg)
	if err != nil {
		fatal(err)
	}
	defer of.Close()
	factorT := time.Since(t0)
	if obs.Run != nil {
		// /progress carries the spill-store counters from here on (the
		// solve phase still accrues reads, and the final numbers stay
		// visible through -listen-linger).
		obs.Run.SetSpill(store.Stats)
	}
	t0 = time.Now()
	xOOC, err := of.Solver(0).SolveOriginalMultiCtx(ctx, b, nrhs)
	if err != nil {
		fatal(err)
	}
	solveT := time.Since(t0)
	// Snapshot spill stats only after the solve: DirectReads counts
	// solve-phase fetches that outran the prefetcher.
	spill := store.Stats()
	s := of.Stats

	t := metrics.New(fmt.Sprintf("measured vs simulated resident peaks (%d workers, entries)", s.Workers),
		"source", "in-core total", "OOC resident", "saving %")
	t.AddRow("simulated (max/proc)", sim.MaxTotalPeak, sim.MaxActivePeak,
		fmt.Sprintf("%.1f", metrics.PercentDecrease(sim.MaxTotalPeak, sim.MaxActivePeak)))
	t.AddRow("measured (process)", inPeak, s.ResidentPeak,
		fmt.Sprintf("%.1f", metrics.PercentDecrease(inPeak, s.ResidentPeak)))
	fmt.Println(t.Render())
	fmt.Printf("ooc:       %.3fs factor, %.3fs solve; spilled %d blocks, %.1f MiB; buffer peak %d entries, %d put waits, %d block reads, %d direct\n",
		factorT.Seconds(), solveT.Seconds(), spill.Blocks, float64(spill.BytesWritten)/(1<<20),
		spill.BufferPeak, spill.PutWaits, spill.BlocksRead, spill.DirectReads)
	if s.Retries > 0 || s.DegradedBlocks > 0 {
		fmt.Printf("resilience: %d spill I/O retries, %d blocks degraded to in-core (numerics unaffected)\n",
			s.Retries, s.DegradedBlocks)
	}
	var maxDiff float64
	for i := range xIn {
		maxDiff = math.Max(maxDiff, math.Abs(xIn[i]-xOOC[i]))
	}
	fmt.Printf("  ooc solve        max |x_incore - x_ooc| = %g over %d rhs (bitwise identical factors)\n",
		maxDiff, nrhs)
	return s.ExecStats
}

// maxFactorDiff returns the largest absolute difference between the L (and
// U) entries of two in-core factorizations of the same analysis.
func maxFactorDiff(an *core.Analysis, f, g *parmf.Factors) float64 {
	var d float64
	for ni := 0; ni < an.Tree.Len(); ni++ {
		na, nb := f.Front().Node(ni), g.Front().Node(ni)
		for p, v := range na.L.A {
			d = math.Max(d, math.Abs(v-nb.L.A[p]))
		}
		if na.U != nil {
			for p, v := range na.U.A {
				d = math.Max(d, math.Abs(v-nb.U.A[p]))
			}
		}
	}
	return d
}

// residual returns the worst relative residual over the nrhs columns of
// the row-major n x nrhs solution and right-hand-side blocks.
func residual(a *sparse.CSC, x, b []float64, nrhs int) float64 {
	xc := make([]float64, a.N)
	var worst float64
	for c := 0; c < nrhs; c++ {
		for i := 0; i < a.N; i++ {
			xc[i] = x[i*nrhs+c]
		}
		ax := a.MulVec(xc)
		var rn, bn float64
		for i := range ax {
			d := ax[i] - b[i*nrhs+c]
			rn += d * d
			bc := b[i*nrhs+c]
			bn += bc * bc
		}
		if r := math.Sqrt(rn / bn); r > worst {
			worst = r
		}
	}
	return worst
}
