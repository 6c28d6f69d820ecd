package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sparse"
)

// kernel is the dense kernel family of every workload: the CLI default,
// whose results are bitwise reproducible.
const kernel = dense.KernelDefault

// maxBackwardError is the correctness gate: every right-hand-side column
// of every solve must reach this normwise backward error.
const maxBackwardError = 1e-10

// workload is one benchmark input family and the pipeline run on it.
type workload struct {
	name     string
	ordering order.Method
	rounds   int  // factorize + solve rounds per analysis
	nrhs     int  // right-hand sides per solve
	ooc      bool // memory-based simulation, then out-of-core factorizations
	// gen builds the matrix from the seed; small selects the reduced
	// scale of the self-test.
	gen func(rng *rand.Rand, small bool) (*sparse.CSC, error)
}

// Every workload keeps the sparsity pattern of its suite problem fixed;
// the run's seed draws the numerical values and the right-hand sides.
// (A seeded pattern would make the inputs themselves differ by up to a
// third in flops from seed to seed.)
var workloads = []workload{
	{
		// XENON2 shape: 3D unsymmetric grid, nested dissection.
		name: "mesh-nd", ordering: order.ND, rounds: 1, nrhs: 1,
		gen: func(rng *rand.Rand, small bool) (*sparse.CSC, error) {
			if small {
				return sparse.Grid3DUnsym(40, 6, 6, rng), nil
			}
			return sparse.Grid3DUnsym(400, 10, 10, rng), nil
		},
	},
	{
		// PRE2 shape: harmonic-balance circuit, AMD, out of core.
		name: "circuit-ooc", ordering: order.AMD, rounds: 6, nrhs: 16, ooc: true,
		gen: func(rng *rand.Rand, small bool) (*sparse.CSC, error) {
			pattern := rand.New(rand.NewSource(2001))
			a := sparse.HarmonicBalance(24, 24, 40, 15, 2, 6, pattern)
			if small {
				a = sparse.HarmonicBalance(12, 12, 10, 7, 2, 6, pattern)
			}
			a.Val = nil
			return a, sparse.FillDominant(a, rng)
		},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// runner runs operations of one workload on one generated matrix.
type runner struct {
	w        workload
	a        *sparse.CSC
	seed     int64
	spillDir string
	rec      *recorder // spans around program calls; nil when untraced
	// perturb, when set, alters every solution before it is checked; the
	// self-test uses it to show that a wrong answer counts as a failure.
	perturb func(x []float64)
}

func (r *runner) coreConfig() core.Config {
	cfg := core.DefaultConfig(r.w.ordering, workers)
	cfg.Kernel = kernel
	cfg.OOC = ooc.Options{Dir: r.spillDir}
	return cfg
}

// setup is everything before the first numeric factorization: the
// analysis, plus the memory-based simulation on out-of-core workloads.
func (r *runner) setup() (*core.Analysis, error) {
	an, err := core.Analyze(r.a, r.coreConfig())
	if err != nil || !r.w.ooc {
		return an, err
	}
	_, err = an.Simulate(parsim.MemoryBased())
	return an, err
}

// factorize runs one numeric factorization under cfg, out of core when
// the workload asks for it; store is nil in core.
func (r *runner) factorize(an *core.Analysis, cfg parmf.Config) (*parmf.Factors, *ooc.FileStore, error) {
	if r.w.ooc {
		return an.FactorizeParallelOOC(cfg)
	}
	f, err := an.FactorizeParallel(cfg)
	return f, nil, err
}

// rhs returns the seeded right-hand-side block of one round.
func (r *runner) rhs(op, round int) []float64 {
	rng := rand.New(rand.NewSource(r.seed*1_000_003 + int64(op)*1_009 + int64(round)))
	b := make([]float64, r.a.N*r.w.nrhs)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

// roundResult is what one factorization and its solve measured.
type roundResult struct {
	factor, solve           time.Duration
	stats                   parmf.Stats
	spill                   *ooc.Stats // after the solve; nil in core
	factorAlloc, solveAlloc uint64     // bytes allocated
	gcCycles                uint32
}

// factorSolve runs one factorization under cfg and one solve of the
// round's right-hand sides, applies the correctness gate, and closes the
// factors (deleting a spill file).
func (r *runner) factorSolve(an *core.Analysis, cfg parmf.Config, op, round int) (roundResult, error) {
	var res roundResult
	b := r.rhs(op, round)
	runtime.GC() // start from a collected heap, not the previous round's garbage
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, gc0 := ms.TotalAlloc, ms.NumGC
	var f *parmf.Factors
	var store *ooc.FileStore
	var err error
	t0 := time.Now()
	r.rec.do("factorize", func() { f, store, err = r.factorize(an, cfg) })
	res.factor = time.Since(t0)
	if err != nil {
		return res, fmt.Errorf("factorize: %w", err)
	}
	runtime.ReadMemStats(&ms)
	alloc1 := ms.TotalAlloc
	var x []float64
	t0 = time.Now()
	r.rec.do("solve", func() { x, err = f.Solver(workers).SolveOriginalMulti(b, r.w.nrhs) })
	res.solve = time.Since(t0)
	runtime.ReadMemStats(&ms)
	res.factorAlloc, res.solveAlloc, res.gcCycles = alloc1-alloc0, ms.TotalAlloc-alloc1, ms.NumGC-gc0
	res.stats = f.Stats
	if store != nil {
		st := store.Stats()
		res.spill = &st
	}
	if err == nil {
		if r.perturb != nil {
			r.perturb(x)
		}
		err = checkSolution(r.a, x, b, r.w.nrhs)
	}
	return res, errors.Join(err, f.Close())
}

// opTimes is what one untraced operation measured.
type opTimes struct {
	setup, toSolution time.Duration
	rounds            []roundResult
	stats             core.Stats
}

// operation runs the whole pipeline once: setup, then rounds
// factorizations each followed by a checked solve. Any error or failed
// check fails the whole operation.
func (r *runner) operation(op, rounds int) (opTimes, error) {
	var t opTimes
	runtime.GC() // start from a collected heap, not the previous operation's garbage
	t0 := time.Now()
	an, err := r.setup()
	if err != nil {
		return t, fmt.Errorf("setup: %w", err)
	}
	t.setup = time.Since(t0)
	t.stats = an.Stats()
	for round := 0; round < rounds; round++ {
		rr, err := r.factorSolve(an, parmf.DefaultConfig(workers), op, round)
		if err != nil {
			return t, fmt.Errorf("round %d: %w", round, err)
		}
		if round == 0 {
			t.toSolution = t.setup + rr.factor + rr.solve
		}
		t.rounds = append(t.rounds, rr)
	}
	return t, nil
}

// checkSolution applies the correctness gate to every column of the
// n x nrhs row-major blocks x and b: the normwise backward error
// ‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞) must not exceed maxBackwardError.
func checkSolution(a *sparse.CSC, x, b []float64, nrhs int) error {
	normA := normInf(a)
	xc := make([]float64, a.N)
	for c := 0; c < nrhs; c++ {
		var xn, bn float64
		for i := range xc {
			xc[i] = x[i*nrhs+c]
			xn = math.Max(xn, math.Abs(xc[i]))
			bn = math.Max(bn, math.Abs(b[i*nrhs+c]))
		}
		var rn float64
		for i, v := range a.MulVec(xc) {
			rn = math.Max(rn, math.Abs(b[i*nrhs+c]-v))
		}
		if be := rn / (normA*xn + bn); !(be <= maxBackwardError) {
			return fmt.Errorf("rhs column %d: backward error %.3g exceeds %g", c, be, maxBackwardError)
		}
	}
	return nil
}

// normInf is the largest absolute row sum of a, honoring symmetric
// (lower-triangle) storage.
func normInf(a *sparse.CSC) float64 {
	rows := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i, v := a.RowIdx[p], math.Abs(a.Val[p])
			rows[i] += v
			if a.Kind == sparse.Symmetric && i != j {
				rows[j] += v
			}
		}
	}
	var m float64
	for _, v := range rows {
		m = math.Max(m, v)
	}
	return m
}

// median returns the median of v (0 for an empty slice).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of v (0 for an
// empty slice).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(k, 1)-1]
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}
