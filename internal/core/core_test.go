package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/front"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/seqmf"
	"repro/internal/sparse"
)

// seqFactorize runs the sequential reference executor over the analysis
// with the kernels the facade resolves by default (blocked, default
// family): the oracle the FactorizeParallel methods are checked against.
func seqFactorize(t *testing.T, an *Analysis) *seqmf.Factors {
	t.Helper()
	opt := seqmf.DefaultOptions()
	opt.BlockRows = dense.DefaultBlockRows
	f, err := seqmf.Factorize(an.Permuted, an.Tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// assertSameFactors asserts that every factor block in got — an
// in-memory or out-of-core store — holds the exact bits of want's.
func assertSameFactors(t *testing.T, an *Analysis, want *front.Factors, got front.Store) {
	t.Helper()
	for ni := 0; ni < an.Tree.Len(); ni++ {
		g, err := got.Fetch(ni)
		if err != nil {
			t.Fatal(err)
		}
		w := want.Node(ni)
		if w.NPiv != g.NPiv || len(w.Rows) != len(g.Rows) || (w.U == nil) != (g.U == nil) {
			t.Fatalf("node %d: block shape differs", ni)
		}
		for p, v := range w.L.A {
			if v != g.L.A[p] {
				t.Fatalf("node %d: L entry %d differs: %g vs %g", ni, p, v, g.L.A[p])
			}
		}
		if w.U != nil {
			for p, v := range w.U.A {
				if v != g.U.A[p] {
					t.Fatalf("node %d: U entry %d differs: %g vs %g", ni, p, v, g.U.A[p])
				}
			}
		}
		got.Release(ni)
	}
}

func TestAnalyzeFactorizeSimulate(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	an, err := Analyze(a, DefaultConfig(order.ND, 4))
	if err != nil {
		t.Fatal(err)
	}
	st := an.Stats()
	if st.N != a.N || st.Fronts == 0 || st.Flops <= 0 || st.SeqPeak <= 0 {
		t.Fatalf("bad stats %+v", st)
	}
	f, err := an.FactorizeParallel(parmf.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.PeakStack != an.SeqPeak {
		t.Errorf("numeric peak %d != analysis SeqPeak %d", f.Stats.PeakStack, an.SeqPeak)
	}
	for _, s := range []parsim.Strategy{parsim.Workload(), parsim.MemoryBased()} {
		res, err := an.Simulate(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.NodesDone != an.Tree.Len() {
			t.Fatal("incomplete simulation")
		}
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, DefaultConfig(order.AMD, 2)); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := Analyze(&sparse.CSC{ColPtr: []int{0}}, DefaultConfig(order.AMD, 2)); err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestAnalyzeDefaultsProcs(t *testing.T) {
	a := sparse.Grid2D(8, 8)
	cfg := DefaultConfig(order.AMD, 0) // invalid proc count
	an, err := Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if an.Mapping.P != 1 {
		t.Errorf("P = %d, want clamped to 1", an.Mapping.P)
	}
}

func TestWithSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := sparse.Grid3DUnsym(8, 8, 8, rng)
	an, err := Analyze(a, DefaultConfig(order.ND, 8))
	if err != nil {
		t.Fatal(err)
	}
	big := an.LargestMaster()
	if big == 0 {
		t.Skip("no non-root masters")
	}
	sp, err := an.WithSplit(big/2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sp.SplitCount == 0 {
		t.Fatal("nothing split at half the largest master")
	}
	if sp.Tree.Len() <= an.Tree.Len() {
		t.Error("split tree not larger")
	}
	if sp.LargestMaster() >= big {
		t.Errorf("largest master not reduced: %d -> %d", big, sp.LargestMaster())
	}
	// Both analyses remain simulable and consistent.
	r1, err := an.Simulate(parsim.MemoryBased())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sp.Simulate(parsim.MemoryBased())
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalFactors != r2.TotalFactors {
		t.Errorf("splitting changed factor entries: %d vs %d (unsym chains preserve them)",
			r1.TotalFactors, r2.TotalFactors)
	}
}

func TestSplitViaConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := sparse.Grid3DUnsym(7, 7, 7, rng)
	cfg := DefaultConfig(order.ND, 4)
	pre, err := Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SplitThreshold = pre.LargestMaster() / 2
	an, err := Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if an.SplitCount == 0 {
		t.Error("config-driven split did nothing")
	}
}

func TestStatsCounts(t *testing.T) {
	a := sparse.Grid3D(9, 9, 9)
	an, err := Analyze(a, DefaultConfig(order.ND, 8))
	if err != nil {
		t.Fatal(err)
	}
	st := an.Stats()
	if st.Subtrees != len(an.Mapping.SubRoot) {
		t.Errorf("subtrees %d vs %d", st.Subtrees, len(an.Mapping.SubRoot))
	}
	t2 := 0
	for i := range an.Tree.Nodes {
		if an.Mapping.Types[i] == assembly.Type2 {
			t2++
		}
	}
	if st.Type2Nodes != t2 {
		t.Errorf("type2 count %d vs %d", st.Type2Nodes, t2)
	}
	if st.FactorEntries != assembly.TotalFactorEntries(an.Tree) {
		t.Error("factor entries mismatch")
	}
}

func TestSimulateTraced(t *testing.T) {
	a := sparse.Grid2D(10, 10)
	an, err := Analyze(a, DefaultConfig(order.AMD, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.SimulateTraced(parsim.Workload())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 2 {
		t.Errorf("%d traces", len(res.Traces))
	}
}

// TestFactorizeOOC pins the out-of-core contract at one worker: every
// block is spilled, the resident peak drops below the in-core one, and
// the factors and solves are bitwise identical to the in-core run's.
func TestFactorizeOOC(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	cfg := DefaultConfig(order.ND, 4)
	cfg.OOC.Dir = t.TempDir()
	an, err := Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := an.FactorizeParallel(parmf.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	of, st, err := an.FactorizeParallelOOC(parmf.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer of.Close()
	if of.Front() != nil {
		t.Error("OOC factors expose an in-memory container")
	}
	if st.Stats().Blocks != an.Tree.Len() {
		t.Errorf("spilled %d blocks, want %d", st.Stats().Blocks, an.Tree.Len())
	}
	if of.Stats.ResidentPeak >= sf.Stats.ResidentPeak {
		t.Errorf("OOC resident peak %d not below in-core %d",
			of.Stats.ResidentPeak, sf.Stats.ResidentPeak)
	}
	assertSameFactors(t, an, sf.Front(), st)
	// Same factors → identical solves.
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%11) - 5
	}
	xs, err := sf.SolveOriginal(b)
	if err != nil {
		t.Fatal(err)
	}
	xo, err := of.SolveOriginal(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != xo[i] {
			t.Fatalf("x[%d]: %g vs %g (should be bitwise identical)", i, xs[i], xo[i])
		}
	}
}

func TestFactorizeParallelOOC(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	cfg := DefaultConfig(order.ND, 4)
	cfg.OOC.Dir = t.TempDir()
	an, err := Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pf, st, err := an.FactorizeParallelOOC(parmf.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if st.Stats().Blocks != an.Tree.Len() {
		t.Errorf("spilled %d blocks, want %d", st.Stats().Blocks, an.Tree.Len())
	}
	sf := seqFactorize(t, an)
	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	xs, err := sf.SolveOriginal(b)
	if err != nil {
		t.Fatal(err)
	}
	xp, err := pf.SolveOriginal(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != xp[i] {
			t.Fatalf("x[%d]: %g vs %g (should be bitwise identical)", i, xs[i], xp[i])
		}
	}
}

func TestFactorizeParallelMatchesSequential(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	an, err := Analyze(a, DefaultConfig(order.ND, 4))
	if err != nil {
		t.Fatal(err)
	}
	sf := seqFactorize(t, an)
	pf, err := an.FactorizeParallel(parmf.DefaultConfig(0)) // 0 → Procs
	if err != nil {
		t.Fatal(err)
	}
	if pf.Stats.Workers != 4 {
		t.Errorf("workers %d, want analysis procs 4", pf.Stats.Workers)
	}
	// Subtree tasks come from the mapping, so fewer tasks than fronts.
	if pf.Stats.Tasks >= pf.Stats.Fronts {
		t.Errorf("tasks %d not batched below fronts %d", pf.Stats.Tasks, pf.Stats.Fronts)
	}
	if pf.Stats.FactorEntries != sf.Stats.FactorEntries {
		t.Errorf("factor entries %d vs %d", pf.Stats.FactorEntries, sf.Stats.FactorEntries)
	}
	assertSameFactors(t, an, sf.Front(), pf.Store())
}

// TestFactorizeAndSolve covers the factor-then-solve service shape: the
// sequential reference and the 4-worker tree-parallel solve must agree
// bit for bit on a multi-RHS block (in original ordering) and actually
// solve the system, and the solve layer must reject malformed blocks.
func TestFactorizeAndSolve(t *testing.T) {
	a := sparse.Grid3D(6, 6, 6)
	if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
		t.Fatal(err)
	}
	an, err := Analyze(a, DefaultConfig(order.ND, 4))
	if err != nil {
		t.Fatal(err)
	}
	const nrhs = 4
	rng := rand.New(rand.NewSource(2))
	b := make([]float64, a.N*nrhs)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	xs, err := seqFactorize(t, an).SolveOriginalMulti(b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := an.FactorizeParallel(parmf.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if pf.Stats.Workers != 4 {
		t.Fatalf("parallel run used %d workers", pf.Stats.Workers)
	}
	xp, err := pf.Solver(4).SolveOriginalMultiCtx(context.Background(), b, nrhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != xp[i] {
			t.Fatalf("parallel x differs at %d: %v != %v", i, xp[i], xs[i])
		}
	}
	// Residual check column 0: the block is row-major n x nrhs.
	x0 := make([]float64, a.N)
	b0 := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		x0[i], b0[i] = xs[i*nrhs], b[i*nrhs]
	}
	ax := a.MulVec(x0)
	for i := range ax {
		if d := ax[i] - b0[i]; d > 1e-8 || d < -1e-8 {
			t.Fatalf("residual at %d: %g", i, d)
		}
	}
	// Validation surfaces from the solve layer.
	if _, err := pf.SolveOriginalMulti(b, 0); err == nil {
		t.Error("zero nrhs accepted")
	}
	if _, err := pf.Solver(2).SolveOriginalMultiCtx(context.Background(), b[:3], nrhs); err == nil {
		t.Error("short block accepted")
	}
}

// TestOneWorkerMatchesSequential pins the facade's single-path claim: with
// the analysis-derived defaults (mapping subtree tasks, front-split
// threshold, block rows), FactorizeParallel and FactorizeParallelOOC at
// one worker reproduce the sequential reference executor's factors bit
// for bit, and the in-core run its stats exactly — on a symmetric and an
// unsymmetric problem.
func TestOneWorkerMatchesSequential(t *testing.T) {
	for _, c := range []struct {
		name string
		a    *sparse.CSC
	}{
		{"spd", sparse.Grid3D(7, 7, 7)},
		{"unsym", sparse.Grid3DUnsym(6, 6, 6, rand.New(rand.NewSource(5)))},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig(order.ND, 4)
			cfg.OOC.Dir = t.TempDir()
			an, err := Analyze(c.a, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sf := seqFactorize(t, an)
			pf, err := an.FactorizeParallel(parmf.DefaultConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			assertSameFactors(t, an, sf.Front(), pf.Store())
			if got := pf.Stats.Seq(); got != sf.Stats {
				t.Errorf("1-worker stats %+v != sequential %+v", got, sf.Stats)
			}
			of, st, err := an.FactorizeParallelOOC(parmf.DefaultConfig(1))
			if err != nil {
				t.Fatal(err)
			}
			defer of.Close()
			assertSameFactors(t, an, sf.Front(), st)
		})
	}
}
