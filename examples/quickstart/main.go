// Quickstart: analyze, numerically factorize and solve a sparse SPD
// system, then simulate the same factorization on 8 processors under both
// scheduling strategies and compare memory peaks.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	// A 3D Poisson problem, symmetric positive definite.
	a := sparse.Grid3D(12, 12, 12)
	fmt.Printf("matrix: n=%d, nnz=%d (%v)\n", a.N, a.NNZ(), a.Kind)

	// Symbolic analysis with nested dissection on 8 simulated processors.
	an, err := core.Analyze(a, core.DefaultConfig(order.ND, 8))
	if err != nil {
		log.Fatal(err)
	}
	st := an.Stats()
	fmt.Printf("analysis: %d fronts, max front %d, %.3g flops, %d subtrees\n",
		st.Fronts, st.MaxFront, float64(st.Flops), st.Subtrees)

	// Real numeric factorization + solve, on one worker: the sequential
	// postorder traversal, whose stack peak is the analysis' SeqPeak.
	f, err := an.FactorizeParallel(parmf.DefaultConfig(1))
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	x0 := make([]float64, a.N)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	b := a.MulVec(x0)
	x, err := f.SolveOriginal(b)
	if err != nil {
		log.Fatal(err)
	}
	var maxErr float64
	for i := range x {
		if d := x[i] - x0[i]; d > maxErr || -d > maxErr {
			maxErr = d
			if maxErr < 0 {
				maxErr = -maxErr
			}
		}
	}
	fmt.Printf("numeric: factored %d fronts, stack peak %d entries, max |x-x0| = %.2e\n",
		f.Stats.Fronts, f.Stats.PeakStack, maxErr)

	// Multi-RHS solve: several right-hand sides as one blocked pass over
	// the factors (row-major n x nrhs). Column c of the block solves to
	// the exact bits of a single-RHS solve of that column.
	const nrhs = 4
	bs := make([]float64, a.N*nrhs)
	for i := 0; i < a.N; i++ {
		for c := 0; c < nrhs; c++ {
			bs[i*nrhs+c] = b[i] * float64(c+1)
		}
	}
	xs, err := f.SolveOriginalMulti(bs, nrhs)
	if err != nil {
		log.Fatal(err)
	}
	var maxDev float64
	for i := range x {
		// Column 0 of the block is the single-RHS system solved above.
		if d := xs[i*nrhs] - x[i]; d > maxDev || -d > maxDev {
			maxDev = d
			if maxDev < 0 {
				maxDev = -maxDev
			}
		}
	}
	fmt.Printf("multi-rhs: solved %d systems in one pass, max |x_block - x| = %g (bitwise)\n",
		nrhs, maxDev)

	// Parallel simulation: workload-based vs memory-based scheduling.
	for _, s := range []struct {
		name string
		st   parsim.Strategy
	}{
		{"workload-based (MUMPS baseline)", parsim.Workload()},
		{"memory-based   (paper)         ", parsim.MemoryBased()},
	} {
		res, err := an.Simulate(s.st)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("simulate %s: max peak %6d entries, time %.1f ms, %d msgs\n",
			s.name, res.MaxActivePeak, float64(res.Makespan)/1e6, res.Messages)
	}
}
