package parmf_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/front"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/seqmf"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// problemMatrix generates a suite problem and gives pattern-only analogues
// (GUPTA3's AAᵀ) deterministic diagonally dominant values.
func problemMatrix(t *testing.T, p workload.Problem) *sparse.CSC {
	t.Helper()
	a := p.Matrix()
	if !a.HasValues() {
		if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// compareFactors asserts the two factorizations hold the same pivots and
// the same L (and U) entries within tol on every front.
func compareFactors(t *testing.T, tree *assembly.Tree, a, b *front.Factors, tol float64) {
	t.Helper()
	for ni := range tree.Nodes {
		na, nb := a.Node(ni), b.Node(ni)
		if na.NPiv != nb.NPiv || len(na.Rows) != len(nb.Rows) {
			t.Fatalf("node %d: shape mismatch (npiv %d vs %d, rows %d vs %d)",
				ni, na.NPiv, nb.NPiv, len(na.Rows), len(nb.Rows))
		}
		for k, g := range na.Rows {
			if nb.Rows[k] != g {
				t.Fatalf("node %d: row %d is %d vs %d", ni, k, g, nb.Rows[k])
			}
		}
		for p, v := range na.L.A {
			if d := math.Abs(v - nb.L.A[p]); d > tol*(1+math.Abs(v)) {
				t.Fatalf("node %d: L entry %d differs: %g vs %g", ni, p, v, nb.L.A[p])
			}
		}
		if na.U != nil {
			for p, v := range na.U.A {
				if d := math.Abs(v - nb.U.A[p]); d > tol*(1+math.Abs(v)) {
					t.Fatalf("node %d: U entry %d differs: %g vs %g", ni, p, v, nb.U.A[p])
				}
			}
		}
	}
}

func residual(a *sparse.CSC, x, b []float64) float64 {
	ax := a.MulVec(x)
	var rn, bn float64
	for i := range b {
		d := ax[i] - b[i]
		rn += d * d
		bn += b[i] * b[i]
	}
	return math.Sqrt(rn / bn)
}

// TestCrossValidateSuite factors every Table-1 problem with the parallel
// executor at 1, 2 and 8 workers and checks the factors against seqmf
// within 1e-10 (static pivoting makes them deterministic), the unsymmetric
// LU path included. The 1-worker run must reproduce seqmf.Stats exactly.
func TestCrossValidateSuite(t *testing.T) {
	suite := workload.Suite()
	if testing.Short() {
		suite = workload.SmallSuite() // same 8 problems, test scale
	}
	for _, p := range suite {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			a := problemMatrix(t, p)
			tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
			assembly.SortChildrenLiu(tree)
			sf, err := seqmf.Factorize(pa, tree, seqmf.DefaultOptions())
			if err != nil {
				t.Fatalf("seqmf: %v", err)
			}
			var pf *parmf.Factors
			for _, workers := range []int{1, 2, 8} {
				var err error
				pf, err = parmf.Factorize(pa, tree, parmf.DefaultConfig(workers))
				if err != nil {
					t.Fatalf("parmf %d workers: %v", workers, err)
				}
				compareFactors(t, tree, sf.Front(), pf.Front(), 1e-10)
				if pf.Stats.FactorEntries != sf.Stats.FactorEntries {
					t.Errorf("%d workers: factor entries %d vs seq %d",
						workers, pf.Stats.FactorEntries, sf.Stats.FactorEntries)
				}
				if workers == 1 {
					if got, want := pf.Stats.Seq(), sf.Stats; got != want {
						t.Errorf("1-worker stats %+v != seq %+v", got, want)
					}
					if pf.Stats.Deviations != 0 || pf.Stats.Forced != 0 {
						t.Errorf("1-worker run deviated: %+v", pf.Stats)
					}
				}
			}

			// The 8-worker factors must solve the system too.
			rng := rand.New(rand.NewSource(99))
			b := make([]float64, a.N)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x, err := pf.SolveOriginal(b)
			if err != nil {
				t.Fatal(err)
			}
			if r := residual(a, x, b); r > 1e-7 {
				t.Errorf("residual %g", r)
			}
		})
	}
}

// TestDepthFirstPolicy cross-validates the plain LIFO policy as well.
func TestDepthFirstPolicy(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	assembly.SortChildrenLiu(tree)
	sf, err := seqmf.Factorize(pa, tree, seqmf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := parmf.DefaultConfig(4)
	cfg.Policy = parmf.DepthFirst
	pf, err := parmf.Factorize(pa, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareFactors(t, tree, sf.Front(), pf.Front(), 1e-10)
}

// TestSubtreeShortcut runs with leaf-subtree information (as core wires it
// from the static mapping) and checks correctness is unaffected.
func TestSubtreeShortcut(t *testing.T) {
	a := sparse.Grid3D(7, 7, 7)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	assembly.SortChildrenLiu(tree)
	mp := assembly.Map(tree, assembly.DefaultMapOptions(4))
	sf, err := seqmf.Factorize(pa, tree, seqmf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := parmf.DefaultConfig(4)
	cfg.InSubtree = func(n int) bool { return mp.Subtree[n] >= 0 }
	pf, err := parmf.Factorize(pa, tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareFactors(t, tree, sf.Front(), pf.Front(), 1e-10)
}

// TestSplitTree checks the parallel executor on a statically split tree
// (chain links tile the same pivots; dependencies serialize each chain).
func TestSplitTree(t *testing.T) {
	a := sparse.Grid2D(14, 14)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
	nt, count := assembly.Split(tree, assembly.SplitOptions{MaxMasterEntries: 300, MinPiv: 3})
	if count == 0 {
		t.Skip("nothing split at this size")
	}
	assembly.SortChildrenLiu(nt)
	sf, err := seqmf.Factorize(pa, nt, seqmf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pf, err := parmf.Factorize(pa, nt, parmf.DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	compareFactors(t, nt, sf.Front(), pf.Front(), 1e-10)
}

// TestErrors covers the input-validation paths.
func TestErrors(t *testing.T) {
	a := sparse.Grid2D(4, 4)
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.AMD))
	pat := pa.Clone()
	pat.Val = nil
	if _, err := parmf.Factorize(pat, tree, parmf.DefaultConfig(2)); err == nil {
		t.Error("pattern-only matrix accepted")
	}
	small, _ := assembly.Analyze(sparse.Grid2D(2, 2), assembly.DefaultOptions(order.AMD))
	if _, err := parmf.Factorize(pa, small, parmf.DefaultConfig(2)); err == nil {
		t.Error("mismatched tree accepted")
	}
	f, err := parmf.Factorize(pa, tree, parmf.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(make([]float64, 3)); err == nil {
		t.Error("short rhs accepted")
	}
	if _, err := f.SolveOriginal(make([]float64, 3)); err == nil {
		t.Error("short rhs accepted by SolveOriginal")
	}
}

// TestSmallPivotPropagates makes sure a numeric failure inside a worker is
// reported (and does not deadlock the pool).
func TestSmallPivotPropagates(t *testing.T) {
	// An indefinite symmetric matrix fails partial Cholesky.
	b := sparse.NewBuilder(2, sparse.Symmetric)
	b.Add(0, 0, -1)
	b.Add(1, 0, 1)
	b.Add(1, 1, -1)
	a := b.Build()
	tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.Natural))
	if _, err := parmf.Factorize(pa, tree, parmf.DefaultConfig(4)); err == nil {
		t.Fatal("indefinite matrix accepted")
	}
}

// TestFastKernelsSuite validates the opt-in fast kernel family the way it
// is specified: not bitwise against the default mode, but (a) residual
// within 10x of the default factorization on every suite problem, and
// (b) deterministic — the parallel fast factors are bitwise identical to
// the sequential fast ones at every worker count, with the within-front
// split path enabled, because the fast kernels compute the same bits
// whatever the row partition.
func TestFastKernelsSuite(t *testing.T) {
	suite := workload.SmallSuite()
	for _, p := range suite {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			a := problemMatrix(t, p)
			tree, pa := assembly.Analyze(a, assembly.DefaultOptions(order.ND))
			assembly.SortChildrenLiu(tree)

			rng := rand.New(rand.NewSource(99))
			b := make([]float64, a.N)
			for i := range b {
				b[i] = rng.NormFloat64()
			}

			def, err := seqmf.Factorize(pa, tree, seqmf.DefaultOptions())
			if err != nil {
				t.Fatalf("seqmf default: %v", err)
			}
			xDef, err := def.SolveOriginal(b)
			if err != nil {
				t.Fatal(err)
			}
			rDef := residual(a, xDef, b)

			fopt := seqmf.DefaultOptions()
			fopt.Kernel = dense.KernelFast
			fast, err := seqmf.Factorize(pa, tree, fopt)
			if err != nil {
				t.Fatalf("seqmf fast: %v", err)
			}
			if fast.Stats.Kernel != "fast" || def.Stats.Kernel != "default" {
				t.Fatalf("kernel stats %q / %q", fast.Stats.Kernel, def.Stats.Kernel)
			}
			xFast, err := fast.SolveOriginal(b)
			if err != nil {
				t.Fatal(err)
			}
			if rFast := residual(a, xFast, b); rFast > 10*rDef+1e-13 {
				t.Errorf("fast residual %g vs default %g (over 10x)", rFast, rDef)
			}

			// With no subtree roots configured, every node is an individual
			// task, so at >1 worker exactly the fronts of at least
			// FrontSplit rows (spanning more than one row block) must run
			// through the master/slave split path.
			const frontSplit = 128
			wantSplit := false
			for i := range tree.Nodes {
				if nf := tree.Nodes[i].NFront(); nf >= frontSplit && nf > dense.DefaultBlockRows {
					wantSplit = true
					break
				}
			}
			for _, workers := range []int{1, 2, 8} {
				cfg := parmf.DefaultConfig(workers)
				cfg.Kernel = dense.KernelFast
				cfg.FrontSplit = frontSplit // exercise the split path through the fast kernels
				pf, err := parmf.Factorize(pa, tree, cfg)
				if err != nil {
					t.Fatalf("parmf fast %d workers: %v", workers, err)
				}
				compareFactors(t, tree, fast.Front(), pf.Front(), 0) // bitwise
				if pf.Stats.Kernel != "fast" {
					t.Errorf("%d workers: kernel stat %q", workers, pf.Stats.Kernel)
				}
				if workers > 1 && wantSplit && pf.Stats.SplitFronts == 0 {
					t.Errorf("%d workers: split path did not run (want SplitFronts > 0)", workers)
				}
			}
		})
	}
}
