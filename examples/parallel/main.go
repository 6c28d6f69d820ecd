// Parallel: factor the same SPD system with the real shared-memory
// parallel executor on one worker (the sequential schedule) and on four,
// cross-check the factors entry by entry, and compare wall-clock times and
// per-worker memory peaks — the live counterpart of the simulator
// comparison in examples/quickstart.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	// A 3D Poisson problem, symmetric positive definite.
	a := sparse.Grid3D(24, 24, 24)
	fmt.Printf("matrix: n=%d, nnz=%d (%v)\n", a.N, a.NNZ(), a.Kind)

	// Symbolic analysis with nested dissection; the 4-processor static
	// mapping also defines the leaf-subtree tasks the executor batches.
	an, err := core.Analyze(a, core.DefaultConfig(order.ND, 4))
	if err != nil {
		log.Fatal(err)
	}
	st := an.Stats()
	fmt.Printf("analysis: %d fronts, max front %d, %d subtrees, sequential peak %d entries\n",
		st.Fronts, st.MaxFront, st.Subtrees, st.SeqPeak)

	t0 := time.Now()
	sf, err := an.FactorizeParallel(parmf.DefaultConfig(1))
	if err != nil {
		log.Fatal(err)
	}
	seqT := time.Since(t0)
	fmt.Printf("sequential: %.3fs on 1 worker, peak %d entries\n", seqT.Seconds(), sf.Stats.PeakStack)

	t0 = time.Now()
	pf, err := an.FactorizeParallel(parmf.DefaultConfig(4))
	if err != nil {
		log.Fatal(err)
	}
	parT := time.Since(t0)
	fmt.Printf("parallel:   %.3fs with %d workers (speedup %.2fx)\n",
		parT.Seconds(), pf.Stats.Workers, seqT.Seconds()/parT.Seconds())
	for w, p := range pf.Stats.WorkerPeaks {
		fmt.Printf("  worker %d: peak %d entries (bound %d)\n", w, p, pf.Stats.PeakBound)
	}
	fmt.Printf("  %d tasks, %d deviations, %d forced activations\n",
		pf.Stats.Tasks, pf.Stats.Deviations, pf.Stats.Forced)

	// Static pivoting makes the two factorizations identical.
	var maxDiff float64
	for ni := 0; ni < an.Tree.Len(); ni++ {
		sn, pn := sf.Front().Node(ni), pf.Front().Node(ni)
		for p, v := range sn.L.A {
			if d := math.Abs(v - pn.L.A[p]); d > maxDiff {
				maxDiff = d
			}
		}
	}
	fmt.Printf("cross-check: max |L_seq - L_par| = %.3g\n", maxDiff)

	// And the parallel factors solve the system.
	rng := rand.New(rand.NewSource(42))
	x0 := make([]float64, a.N)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	b := a.MulVec(x0)
	x, err := pf.SolveOriginal(b)
	if err != nil {
		log.Fatal(err)
	}
	var errNorm float64
	for i := range x {
		errNorm += (x[i] - x0[i]) * (x[i] - x0[i])
	}
	fmt.Printf("solve: ||x - x0|| = %.3g\n", math.Sqrt(errNorm))

	// The solve phase is tree-parallel too, and deterministic: a blocked
	// multi-RHS solve over four workers matches the one-worker solve bit
	// for bit, column by column.
	const nrhs = 3
	bs := make([]float64, a.N*nrhs)
	for i := 0; i < a.N; i++ {
		for c := 0; c < nrhs; c++ {
			bs[i*nrhs+c] = b[i] / float64(c+1)
		}
	}
	xp, err := pf.SolveOriginalMulti(bs, nrhs)
	if err != nil {
		log.Fatal(err)
	}
	xq, err := sf.SolveOriginalMulti(bs, nrhs)
	if err != nil {
		log.Fatal(err)
	}
	for i := range xp {
		if xp[i] != xq[i] {
			log.Fatalf("parallel and sequential multi-RHS solves differ at %d", i)
		}
	}
	fmt.Printf("multi-rhs: %d systems, parallel == sequential bitwise\n", nrhs)
}
