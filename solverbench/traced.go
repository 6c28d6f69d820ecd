package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/assembly"
	"repro/internal/core"
	"repro/internal/etree"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/parsim"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// span is one interval the benchmark timed around a call into the
// program. Self is the duration minus what its child spans cover.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a top-level span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory. It is used from
// one goroutine only.
type recorder struct {
	t0    time.Time
	op    int // operation id stamped on new spans
	spans []span
	open  []int // stack of open span ids
}

// do runs f inside a span named name, nested under the innermost open
// span, and returns the span's id. A nil recorder just runs f.
func (r *recorder) do(name string, f func()) int {
	if r == nil {
		f()
		return -1
	}
	id := len(r.spans)
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name,
		Start: time.Since(r.t0).Seconds()})
	r.open = append(r.open, id)
	f()
	r.open = r.open[:len(r.open)-1]
	r.spans[id].End = time.Since(r.t0).Seconds()
	return id
}

// finish computes every span's self time.
func (r *recorder) finish() {
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].seconds()
	}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			r.spans[s.Parent].Self -= s.seconds()
		}
	}
}

// children returns the spans whose parent is id.
func (r *recorder) children(id int) []span {
	var out []span
	for _, s := range r.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// write dumps the spans as JSON to path.
func (r *recorder) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Run   any    `json:"run"`
		Spans []span `json:"spans"`
	}{header, r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// analysisMetrics names the per-layer metric of each span of the
// outside-in analysis chain.
var analysisMetrics = map[string]string{
	"order": "order.s", "etree": "etree.s", "colcounts": "etree.colcounts_s",
	"supernodes": "etree.supernodes_s", "buildtree": "assembly.buildtree_s",
	"liu": "assembly.liu_s", "map": "assembly.map_s",
}

// analyzeTraced repeats the public call chain of core.Analyze (through
// assembly.Analyze) one step per span: ordering, permute + elimination
// tree + postorder + re-permute, column counts, supernodes +
// amalgamation, tree construction, Liu child ordering and the static
// mapping. It returns the tree and the id of the enclosing span.
func analyzeTraced(rec *recorder, a *sparse.CSC, cfg core.Config) (*assembly.Tree, int, error) {
	var (
		perm, parent, counts, super, memb []int
		pa                                *sparse.CSC
		t                                 *assembly.Tree
		err                               error
	)
	id := rec.do("analysis", func() {
		rec.do("order", func() { perm = order.Compute(a, cfg.Ordering) })
		rec.do("etree", func() {
			pa = a.Permute(perm)
			parent = etree.Compute(pa)
			perm = etree.ApplyPostorder(perm, etree.Postorder(parent))
			pa = a.Permute(perm)
			parent = etree.Compute(pa)
		})
		rec.do("colcounts", func() { counts = etree.ColCounts(pa, parent) })
		rec.do("supernodes", func() {
			super, memb = etree.Supernodes(parent, counts)
			super, memb = etree.Amalgamate(parent, counts, super, memb, cfg.Amalg)
		})
		rec.do("buildtree", func() {
			t = assembly.BuildTree(pa, parent, super, memb)
			t.Kind = a.Kind
			t.Perm = perm
		})
		rec.do("liu", func() { assembly.TreePeak(assembly.SortChildrenLiu(t), t) })
		rec.do("map", func() { err = assembly.Map(t, assembly.DefaultMapOptions(cfg.Procs)).Validate(t) })
	})
	return t, id, err
}

// checkFidelity compares the outside-in chain's tree with the one
// core.Analyze built on the same matrix: without equal permutations,
// front counts and factor sizes the per-layer numbers would describe a
// different program.
func checkFidelity(chain, ref *assembly.Tree) error {
	switch {
	case !slices.Equal(chain.Perm, ref.Perm):
		return errors.New("traced analysis chain: permutation differs from core.Analyze")
	case chain.Len() != ref.Len():
		return fmt.Errorf("traced analysis chain: %d fronts, core.Analyze %d", chain.Len(), ref.Len())
	case assembly.TotalFactorEntries(chain) != assembly.TotalFactorEntries(ref):
		return fmt.Errorf("traced analysis chain: %d factor entries, core.Analyze %d",
			assembly.TotalFactorEntries(chain), assembly.TotalFactorEntries(ref))
	}
	return nil
}

// tracedRun measures the per-layer metrics: the analysis step by step
// (fidelity-checked against core.Analyze), the simulation on out-of-core
// workloads, then rounds of an untraced, a traced and a one-worker
// factorization with checked solves until dur has passed. Sub-layer
// numbers inside a factorization or solve come from the program's own
// tracer (parmf.Config.Tracer), parmf.Stats and ooc.FileStore.Stats.
func tracedRun(r *runner, gen time.Duration, dur time.Duration, spansPath string, out io.Writer) (result, error) {
	res := result{Metrics: map[string]metric{}}
	m := res.Metrics
	rec := &recorder{t0: time.Now()}
	cfg := r.coreConfig()

	runtime.GC()
	tree, aid, err := analyzeTraced(rec, r.a, cfg)
	if err != nil {
		return res, err
	}
	runtime.GC()
	var an *core.Analysis
	rec.do("core.Analyze", func() { an, err = core.Analyze(r.a, cfg) })
	if err != nil {
		return res, err
	}
	if err := checkFidelity(tree, an.Tree); err != nil {
		return res, err
	}
	fmt.Fprintf(out, "counts %s\n", countsLine(assembly.TotalFactorEntries(tree), assembly.TotalFlops(tree), tree.Len()))

	// Analysis layers: each step's self time, and the un-spanned gap.
	analysis := rec.spans[aid]
	var steps float64
	for _, s := range rec.children(aid) {
		steps += s.seconds()
		m[analysisMetrics[s.Name]] = metric{s.seconds(), "s"}
	}
	gap := analysis.seconds() - steps
	fmt.Fprintf(out, "analysis %.6fs = steps %.6fs + un-spanned gaps %.6fs\n", analysis.seconds(), steps, gap)
	st := an.Stats()
	m["sparse.gen_s"] = metric{gen.Seconds(), "s"}
	m["analysis.s"] = metric{analysis.seconds(), "s"}
	m["analysis.gap_s"] = metric{gap, "s"}
	m["order.factor_entries_m"] = metric{float64(st.FactorEntries) / 1e6, "M-entries"}
	m["order.flops_g"] = metric{float64(st.Flops) / 1e9, "GFLOP"}
	m["assembly.fronts"] = metric{float64(st.Fronts), "count"}
	m["assembly.max_front"] = metric{float64(st.MaxFront), "count"}

	var sim *parsim.Result
	m["parsim.s"] = metric{0, "s"}
	if r.w.ooc {
		sid := rec.do("simulate", func() { sim, err = an.Simulate(parsim.MemoryBased()) })
		if err != nil {
			return res, err
		}
		m["parsim.s"] = metric{rec.spans[sid].seconds(), "s"}
	}

	// Factorization rounds: untraced (wall time, allocations), traced
	// (sub-layers from the program's tracer), and one worker (the
	// speed-up's baseline), each with a checked solve.
	r.rec = rec
	var plainWall, tracedWall, singleWall, plainStack []float64
	var factorAlloc, solveAlloc, gcCycles []float64
	var layers []map[string]float64
	attempt := func(name string, round int, an *core.Analysis, cfg parmf.Config) (roundResult, bool) {
		res.Attempted++
		var rr roundResult
		rec.do(name, func() { rr, err = r.factorSolve(an, cfg, -1, round) })
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "round %d (%s) failed: %v\n", round, name, err)
		}
		return rr, err == nil
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < dur; round++ {
		rec.op = round + 1
		if rr, ok := attempt("untraced", round, an, parmf.DefaultConfig(workers)); ok {
			plainWall = append(plainWall, rr.factor.Seconds())
			plainStack = append(plainStack, mb(rr.stats.PeakStack))
			factorAlloc = append(factorAlloc, float64(rr.factorAlloc)/1e6)
			solveAlloc = append(solveAlloc, float64(rr.solveAlloc)/1e6)
			gcCycles = append(gcCycles, float64(rr.gcCycles))
		}

		// The analysis copy hands the tracer to the out-of-core store too.
		tr := trace.New(workers)
		tracedAn := *an
		tracedAn.Config.Tracer = tr
		if rr, ok := attempt("traced", round, &tracedAn, parmf.DefaultConfig(workers)); ok {
			tracedWall = append(tracedWall, rr.factor.Seconds())
			layers = append(layers, factorLayers(rr, an.Tree, tr))
		}

		if rr, ok := attempt("1-worker", round, an, parmf.DefaultConfig(1)); ok {
			singleWall = append(singleWall, rr.factor.Seconds())
		}
	}
	rec.finish()
	if err := rec.write(spansPath, map[string]any{"workload": r.w.name, "seed": r.seed, "workers": workers}); err != nil {
		return res, err
	}
	fmt.Fprintf(out, "spans %d written to %s; %d traced rounds\n", len(rec.spans), spansPath, len(layers))

	for name, unit := range layerUnits {
		var v []float64
		for _, l := range layers {
			v = append(v, l[name])
		}
		m[name] = metric{median(v), unit}
	}
	m["runtime.factor_alloc_mb"] = metric{median(factorAlloc), "MB"}
	m["runtime.solve_alloc_mb"] = metric{median(solveAlloc), "MB"}
	m["runtime.gc_cycles"] = metric{median(gcCycles), "count"}
	m["parmf.speedup"] = metric{ratio(median(singleWall), median(plainWall)), "ratio"}
	m["trace.overhead"] = metric{ratio(median(tracedWall), median(plainWall)), "ratio"}
	// Untraced: tracing slows the workers, which changes the memory-aware
	// schedule and with it the stack peak (by half on circuit-ooc).
	m["parmf.stack_peak_mb"] = metric{median(plainStack), "MB"}
	m["parsim.predicted_peak_mb"] = metric{0, "MB"}
	m["parsim.predicted_over_measured"] = metric{0, "ratio"}
	if sim != nil {
		m["parsim.predicted_peak_mb"] = metric{mb(sim.MaxActivePeak), "MB"}
		m["parsim.predicted_over_measured"] = metric{ratio(mb(sim.MaxActivePeak), m["parmf.stack_peak_mb"].Value), "ratio"}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// layerUnits lists the per-layer metrics read from one traced
// factorization and its solve, with their units.
var layerUnits = map[string]string{
	"front.assemble_s":      "s",
	"front.extend_add_s":    "s",
	"dense.factor_s":        "s",
	"dense.gflops":          "GFLOP/s",
	"nodepar.master_s":      "s",
	"nodepar.tile_s":        "s",
	"nodepar.slave_tasks":   "count",
	"nodepar.steal_frac":    "fraction",
	"parmf.busy_s":          "s",
	"parmf.idle_s":          "s",
	"parmf.root_front_s":    "s",
	"parmf.deviations":      "count",
	"parmf.waits":           "count",
	"parmf.forced":          "count",
	"ooc.spill_s":           "s",
	"ooc.spill_mb":          "MB",
	"ooc.put_waits":         "count",
	"ooc.prefetch_hit_frac": "fraction",
	"ooc.resident_peak_mb":  "MB",
	"solve.fwd_s":           "s",
	"solve.bwd_s":           "s",
	"solve.gbps":            "GB/s",
}

// factorLayers reads one traced factorization and its solve: phase
// totals and worker busy time from the tracer, counters from parmf.Stats
// and, out of core, from ooc.FileStore.Stats.
func factorLayers(rr roundResult, t *assembly.Tree, tr *trace.Tracer) map[string]float64 {
	s := rr.stats
	snap := tr.Snapshot(s.ExecStats)
	phase := map[string]float64{}
	for _, p := range snap.Phases {
		phase[p.Phase] = p.Seconds
	}
	tracks := tr.Tracks()
	busy := 0.0
	for _, tk := range tracks {
		if trace.WorkerIndex(tk.Index) >= 0 {
			busy += covered(tk.Events)
		}
	}
	wall, solve := rr.factor.Seconds(), rr.solve.Seconds()
	l := map[string]float64{
		"front.assemble_s":    phase[trace.SpanAssemble],
		"front.extend_add_s":  phase[trace.SpanExtendAdd],
		"dense.factor_s":      phase[trace.SpanFactor],
		"dense.gflops":        ratio(float64(assembly.TotalFlops(t))/1e9, phase[trace.SpanFactor]),
		"nodepar.master_s":    phase[trace.SpanMaster],
		"nodepar.tile_s":      phase[trace.SpanTile],
		"nodepar.slave_tasks": float64(s.SlaveTasks),
		"nodepar.steal_frac":  ratio(float64(s.SlaveSteals), float64(s.SlaveTasks)),
		"parmf.busy_s":        busy,
		"parmf.idle_s":        math.Max(0, float64(workers)*wall-busy),
		"parmf.root_front_s":  float64(s.RootFrontNs) / 1e9,
		"parmf.deviations":    float64(s.Deviations),
		"parmf.waits":         float64(s.Waits),
		"parmf.forced":        float64(s.Forced),
		"solve.fwd_s":         passSeconds(tracks, trace.SpanSolveFwd),
		"solve.bwd_s":         passSeconds(tracks, trace.SpanSolveBwd),
		// Computed, not measured: the model factor bytes read once per
		// pass (forward and backward) over the solve's wall time.
		"solve.gbps": ratio(2*mb(assembly.TotalFactorEntries(t))/1e3, solve),
	}
	if spill := rr.spill; spill != nil {
		l["ooc.spill_s"] = phase[trace.SpanSpill]
		l["ooc.spill_mb"] = float64(spill.BytesWritten) / 1e6
		l["ooc.put_waits"] = float64(spill.PutWaits)
		l["ooc.prefetch_hit_frac"] = 1 - ratio(float64(spill.DirectReads), float64(spill.BlocksRead))
		l["ooc.resident_peak_mb"] = mb(s.ResidentPeak)
	}
	return l
}

// covered returns the seconds of a worker track that factorization
// spans cover (the union of its top-level spans, solve spans excluded).
func covered(events []trace.Event) float64 {
	var ns, start int64
	depth := 0
	for _, e := range events {
		if e.Name == trace.SpanSolveFwd || e.Name == trace.SpanSolveBwd {
			continue
		}
		switch e.Kind {
		case trace.KindBegin:
			if depth == 0 {
				start = e.T
			}
			depth++
		case trace.KindEnd:
			depth--
			if depth == 0 {
				ns += e.T - start
			}
		}
	}
	return float64(ns) / 1e9
}

// passSeconds returns the wall seconds from the first begin to the last
// end of the named span across all tracks (0 when absent).
func passSeconds(tracks []trace.Track, name string) float64 {
	first, last := int64(math.MaxInt64), int64(-1)
	for _, tk := range tracks {
		for _, e := range tk.Events {
			if e.Name != name {
				continue
			}
			if e.Kind == trace.KindBegin {
				first = min(first, e.T)
			} else if e.Kind == trace.KindEnd {
				last = max(last, e.T)
			}
		}
	}
	if last < 0 {
		return 0
	}
	return float64(last-first) / 1e9
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
