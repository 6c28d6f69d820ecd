// Outofcore: makes the paper's concluding argument executable. Factors
// are written once and "not reaccessed before the solve phase", so they
// can live on disk; what must stay in memory is the stack (contribution
// blocks + active fronts). Where the seed version of this example only
// *simulated* that saving, this one runs the real out-of-core executor
// (internal/ooc spills every factor block as it is produced) next to the
// real in-core one and prints the measured resident peaks beside the
// simulator's prediction, for every Table-1 problem:
//
//	sim in-core / sim OOC     the simulator's total vs stack-only peak
//	mea in-core               measured peak of factors+stack+fronts
//	mea OOC                   measured resident peak with factors on disk
//
// The measured OOC column approaching the simulated stack-only column is
// the point: once factors spill, the stack really is what remains — and
// the memory-minimizing schedules shrink precisely that.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sparse"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	t := metrics.New("one-worker (sequential schedule) resident peaks, matrix entries (ND ordering)",
		"problem", "sim in-core", "sim OOC", "mea in-core", "mea OOC", "mea saving %")
	for _, p := range workload.SmallSuite() {
		a := p.Matrix()
		if !a.HasValues() {
			if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
				log.Fatal(err)
			}
		}
		an, err := core.Analyze(a, core.DefaultConfig(order.ND, 1))
		if err != nil {
			log.Fatal(err)
		}
		sim, err := an.Simulate(parsim.MemoryBased())
		if err != nil {
			log.Fatal(err)
		}
		inc, err := an.FactorizeParallel(parmf.DefaultConfig(1))
		if err != nil {
			log.Fatal(err)
		}
		ooc, _, err := an.FactorizeParallelOOC(parmf.DefaultConfig(1))
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(p.Name, sim.MaxTotalPeak, sim.MaxActivePeak,
			inc.Stats.ResidentPeak, ooc.Stats.ResidentPeak,
			fmt.Sprintf("%.1f", metrics.PercentDecrease(inc.Stats.ResidentPeak, ooc.Stats.ResidentPeak)))

		// The two executions are interchangeable: bitwise-identical solves.
		b := make([]float64, a.N)
		for i := range b {
			b[i] = float64(i%13) - 6
		}
		xi, err := inc.SolveOriginal(b)
		if err != nil {
			log.Fatal(err)
		}
		xo, err := ooc.SolveOriginal(b)
		if err != nil {
			log.Fatal(err)
		}
		for i := range xi {
			if xi[i] != xo[i] {
				log.Fatalf("%s: in-core and OOC solves differ at %d", p.Name, i)
			}
		}
		ooc.Close()
	}
	fmt.Println(t.Render())

	// The same holds with more workers: one shared meter across workers
	// and the spill writer measures the whole-process peak.
	const workers = 8
	p, err := workload.ByName(workload.Suite(), "PRE2")
	if err != nil {
		log.Fatal(err)
	}
	a := p.Matrix()
	an, err := core.Analyze(a, core.DefaultConfig(order.ND, workers))
	if err != nil {
		log.Fatal(err)
	}
	inc, err := an.FactorizeParallel(parmf.DefaultConfig(workers))
	if err != nil {
		log.Fatal(err)
	}
	oocF, st, err := an.FactorizeParallelOOC(parmf.DefaultConfig(workers))
	if err != nil {
		log.Fatal(err)
	}
	defer oocF.Close()
	fmt.Printf("\n%s with %d workers: in-core resident peak %d entries, out-of-core %d (%.1f%% saved)\n",
		p.Name, workers, inc.Stats.ResidentPeak, oocF.Stats.ResidentPeak,
		metrics.PercentDecrease(inc.Stats.ResidentPeak, oocF.Stats.ResidentPeak))
	s := st.Stats()
	fmt.Printf("spilled %d factor blocks (%.1f MiB); buffer peak %d entries; stack stayed resident\n",
		s.Blocks, float64(s.BytesWritten)/(1<<20), s.BufferPeak)
	fmt.Println("\nWith factors out of core, the resident set shrinks toward the stack-only")
	fmt.Println("peak the simulator predicts — the part the memory-based strategy minimizes.")
}
