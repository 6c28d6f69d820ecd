// Package parmf is the shared-memory parallel numeric multifrontal
// executor: a pool of worker goroutines walks the assembly tree, assembling
// and partially factoring independent fronts concurrently. It is the
// real-thread counterpart of the message-passing simulator internal/parsim
// — same tree, same memory model (factors area / per-worker CB stack /
// active fronts, all in model entries), but wall-clock time and real
// numerics via the kernels shared with internal/seqmf (internal/front).
//
// Tasks follow the paper's two-layer structure: a leaf subtree of the
// static mapping is one task, processed entirely by one worker in postorder
// (the Geist-Ng layer L0 amortizes scheduling over the cheap bottom of the
// tree), while every node above the subtree layer is an individual task.
// Ready tasks live in one shared pool (sched.Pool, LIFO so the default
// traversal is depth-first), and a worker looking for work applies the
// memory-aware policy of Algorithm 2 (sched.SelectMemoryAware) against its
// *own* CB-stack occupation — it prefers the topmost task that keeps its
// active memory under the sequential peak bound, and otherwise falls back
// off-top. Shared memory affords one luxury the message-passing setting
// lacks: when no pool task fits and other workers are still busy, the
// worker waits for the state to change instead of blowing the bound. An
// over-bound (peak-raising) activation happens — and is counted in
// Stats.Forced — only for subtree work, which Algorithm 2 takes
// unconditionally, or when the whole worker fleet has gone idle.
//
// Because pivoting is static and each front is assembled by exactly one
// worker in deterministic child order, the factors are bitwise identical to
// seqmf's regardless of worker count or interleaving; scheduling only
// changes memory shape and wall-clock time.
//
// Factor blocks are owned by a front.Store: each worker pushes its blocks
// into the store the moment they are extracted (Config.Store; the default
// keeps them in memory). With an out-of-core store (internal/ooc) a
// block's memory is released as soon as the background writer has spilled
// it, so the measured resident peak (Stats.ResidentPeak, tracked by a
// meter shared between the workers and the store) approaches the
// stack-only cost the paper's schedules minimize.
package parmf

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/faults"
	"repro/internal/front"
	"repro/internal/memory"
	"repro/internal/nodepar"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Policy selects how a worker picks its next task from the shared pool.
type Policy int

const (
	// MemoryAware runs Algorithm 2 per worker: take the topmost ready task
	// that keeps this worker's stack + task peak under the bound, fall
	// back off-top, wait if nothing fits while others are busy.
	MemoryAware Policy = iota
	// DepthFirst always pops the pool top (the MUMPS default policy).
	DepthFirst
)

func (p Policy) String() string {
	switch p {
	case MemoryAware:
		return "memory"
	case DepthFirst:
		return "depthfirst"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// SlavePolicy selects how the master of a split front picks its preferred
// slave workers (the paper's dynamic slave selection, Section 3 vs 4).
type SlavePolicy int

const (
	// SlavesMemory is Algorithm 1: level the workers' instantaneous
	// active memory without raising the observed peak.
	SlavesMemory SlavePolicy = iota
	// SlavesWorkload is the MUMPS baseline: prefer workers less loaded
	// than the master, balancing elimination flops.
	SlavesWorkload
)

func (p SlavePolicy) String() string {
	switch p {
	case SlavesMemory:
		return "memory"
	case SlavesWorkload:
		return "workload"
	}
	return fmt.Sprintf("SlavePolicy(%d)", int(p))
}

// Config drives the parallel factorization.
type Config struct {
	// Workers is the worker-goroutine count (<1 means 1).
	Workers int
	// Policy is the task-selection policy.
	Policy Policy
	// PivotTol is the minimum pivot magnitude for LU (0 = default 1e-12).
	PivotTol float64
	// PeakBound is the per-worker active-memory budget (model entries) the
	// memory-aware policy schedules under. 0 uses the sequential stack
	// peak of the tree with its current child order — the tightest bound a
	// single worker can always meet.
	PeakBound int64
	// SubtreeRoots lists roots of disjoint leaf subtrees (typically the
	// static mapping's Geist-Ng layer); each subtree runs as a single task
	// on one worker. Nodes outside the subtrees are individual tasks.
	SubtreeRoots []int
	// InSubtree optionally marks extra nodes Algorithm 2 should treat as
	// subtree work (taken unconditionally, step 1); SubtreeRoots members
	// are always treated so.
	InSubtree func(node int) bool
	// Store receives each front's factor block the moment it is
	// extracted; nil keeps factors in memory (front.Factors).
	Store front.Store
	// Meter, when non-nil, replaces the internal resident-memory meter —
	// pass one to share accounting with an enclosing measurement.
	Meter *memory.Meter
	// FrontSplit, when positive, factors fronts of at least this order
	// (outside leaf subtrees, at more than one worker) through the
	// within-front master/slave path (internal/nodepar): the paper's
	// type-2 1D row blocking as real shared-memory tasks. <= 0 disables;
	// core.FactorizeParallel derives it from the mapping's type-2
	// classification threshold. Splitting never changes the factors: the
	// row partition is a pure function of the front and BlockRows, and
	// the blocked kernels are bitwise identical to the element-wise ones.
	FrontSplit int
	// BlockRows is the panel width and row-block height of the blocked
	// dense kernels and the within-front 1D partition. 0 uses
	// dense.DefaultBlockRows; a negative value selects the element-wise
	// reference kernels (which also disables FrontSplit — the split path
	// requires the blocked kernels).
	BlockRows int
	// SlavePolicy picks the slave-selection heuristic for split fronts.
	SlavePolicy SlavePolicy
	// RootGrid controls the 2D (type-3) tile decomposition of root
	// fronts: a split root front factors over a pr x pc worker grid with
	// block-cyclic tile ownership instead of the 1D row blocking, lifting
	// the root's serial-master and task-count caps. 0 sizes the grid
	// automatically from the worker count (pr = floor(sqrt(W)), pc =
	// ceil(W/pr)); > 0 forces that many grid rows (library callers may
	// pass more than W, which AutoGrid clamps; the CLIs' -root-grid
	// rejects that instead); negative disables the 2D path (roots use
	// the 1D partition). The
	// factors never depend on it: tile boundaries are a pure function of
	// the front and BlockRows, and the grid only stamps preferred owners.
	RootGrid int
	// gridPR/gridPC is the resolved root grid (0 = 2D path disabled).
	gridPR, gridPC int
	// Tracer, when non-nil, records task/front/solve spans and memory
	// counter samples from this run (see internal/trace). nil disables
	// tracing at zero cost: the workers pay a nil check per event and
	// allocate nothing.
	Tracer *trace.Tracer
	// Kernel selects the dense kernel family for every front, split or
	// not (dense.KernelDefault, KernelFast, KernelSIMD, or KernelAuto,
	// which resolves to SIMD when the vector path is available and fast
	// otherwise). The non-default families trade the bitwise guarantee
	// for speed, validated by residual, and stay deterministic for a
	// fixed BlockRows — they compute the same bits whatever the row
	// partition, tile grid or worker count, they just differ from the
	// element-wise reference.
	Kernel dense.Kernel
	// Faults, when non-nil, arms deterministic fault injection at the
	// executor's task point (see internal/faults). nil is a zero-cost
	// no-op, like Tracer.
	Faults *faults.Injector
}

// DefaultConfig returns the standard settings for the given worker count.
func DefaultConfig(workers int) Config {
	return Config{Workers: workers, Policy: MemoryAware, PivotTol: 1e-12}
}

// Stats records memory and work, in the units of the assembly cost model.
// The embedded ExecStats is the executor-independent format (see Seq) so a
// one-worker run can be compared field-by-field with the sequential
// reference executor; PeakStack is the max over workers of the (CB stack
// + active front) peak, and ResidentPeak is the whole-process resident
// peak (all workers' fronts and CBs plus store-owned factor blocks, under
// one shared meter).
//
// The fields split by what determines them. The schedule-invariant ones
// are a function of the tree, the subtree tasks and the Config alone, so
// every completed run with the same inputs reports the same values:
// FactorEntries, FinalStack, Fronts, MaxFront, AssemblyOps, Kernel, the
// fault counters (Retries, DegradedBlocks, CancelledTasks), Workers,
// Tasks, PeakBound, SplitFronts, SlaveTasks and Root2DFronts. The
// schedule-dependent ones record which worker claimed which task, or
// when the spill writer caught up, and vary run to run at more than one
// worker: PeakStack, ResidentPeak, WorkerPeaks, WorkerStackPeaks,
// Deviations, Waits, Forced, SlaveSteals, plus the wall-clock
// RootFrontNs. Invariant returns the first set. A one-worker in-core run
// replays the sequential schedule and splits no front, so all of its
// stats are reproducible.
type Stats struct {
	memory.ExecStats

	Workers          int
	Tasks            int     // scheduled tasks (subtrees + upper nodes)
	PeakBound        int64   // bound the memory-aware policy scheduled under
	WorkerPeaks      []int64 // per-worker (stack + front) peaks
	WorkerStackPeaks []int64 // per-worker CB-stack-only peaks
	Deviations       int64   // off-top pool selections (Algorithm 2 deviations)
	Waits            int64   // idle episodes where nothing fit the bound
	Forced           int64   // peak-raising activations over the worker's effective bound

	SplitFronts  int   // fronts factored through the within-front master/slave path
	SlaveTasks   int64 // slave tile tasks executed (all panels and phases)
	SlaveSteals  int64 // slave tile tasks run by a worker other than the preferred one
	Root2DFronts int   // root fronts factored through the 2D (type-3) tile path
	RootFrontNs  int64 // max wall-clock ns spent factoring one split root front
}

// Seq returns the executor-independent subset of the stats, the format
// the sequential reference executor reports.
func (s Stats) Seq() memory.ExecStats { return s.ExecStats }

// Invariant returns a copy of the stats with every schedule-dependent
// field zeroed (see Stats): two completed runs of the same inputs have
// equal Invariant stats at any worker count.
func (s Stats) Invariant() Stats {
	s.PeakStack, s.ResidentPeak = 0, 0
	s.WorkerPeaks, s.WorkerStackPeaks = nil, nil
	s.Deviations, s.Waits, s.Forced = 0, 0, 0
	s.SlaveSteals, s.RootFrontNs = 0, 0
	return s
}

// Factors holds the parallel numeric factorization.
type Factors struct {
	Tree  *assembly.Tree
	Kind  sparse.Type
	N     int
	Stats Stats

	store  front.Store
	fs     *front.Factors   // non-nil when store is the in-memory one
	kern   dense.Kernel     // kernel family the factorization ran with
	tracer *trace.Tracer    // carried into solvers; nil when untraced
	faults *faults.Injector // carried into solvers; nil when unarmed

	solveOnce sync.Once
	solver    *TreeSolver
}

// Front exposes the in-memory per-node factor container (cross-validation
// against seqmf compares node factors through it); nil when the
// factorization ran into an external store.
func (f *Factors) Front() *front.Factors { return f.fs }

// Store returns the factor store the blocks live in.
func (f *Factors) Store() front.Store { return f.store }

// Close releases the factor store (for a file-backed store: the spill
// file). The factors are unusable afterwards.
func (f *Factors) Close() error {
	if f.store == nil {
		return nil
	}
	return f.store.Close()
}

// Solver returns a reusable tree-parallel solver over the factors with
// the given worker count (< 1 uses the factorization's worker count),
// running the kernel family the factorization used. The result of its
// solves does not depend on the worker count (see TreeSolver).
func (f *Factors) Solver(workers int) *TreeSolver {
	if workers < 1 {
		workers = f.Stats.Workers
	}
	ts := NewTreeSolver(f.store, f.Tree, f.Kind, workers, f.kern)
	ts.SetTracer(f.tracer)
	ts.SetFaults(f.faults)
	return ts
}

// treeSolver is the lazily built default solver (factorization worker
// count), shared by the Solve* methods so repeated solves reuse the
// dependency graphs and walk orders.
func (f *Factors) treeSolver() *TreeSolver {
	f.solveOnce.Do(func() { f.solver = f.Solver(0) })
	return f.solver
}

// Solve solves A x = b in the permuted index space. b is not modified.
func (f *Factors) Solve(b []float64) ([]float64, error) {
	if len(b) != f.N {
		return nil, fmt.Errorf("parmf: rhs length %d, want %d", len(b), f.N)
	}
	return f.treeSolver().SolveMulti(b, 1)
}

// SolveMulti solves nrhs systems at once (b is n x nrhs row-major),
// tree-parallel with the factorization's worker count: one forward and
// one backward pass over the factor store however many right-hand sides
// ride along, each column bitwise identical to a single-RHS Solve.
func (f *Factors) SolveMulti(b []float64, nrhs int) ([]float64, error) {
	return f.treeSolver().SolveMulti(b, nrhs)
}

// SolveOriginal solves for a right-hand side in the original ordering.
func (f *Factors) SolveOriginal(b []float64) ([]float64, error) {
	if len(b) != f.N {
		return nil, fmt.Errorf("parmf: rhs length %d, want %d", len(b), f.N)
	}
	return f.treeSolver().SolveOriginalMulti(b, 1)
}

// SolveOriginalMulti is SolveMulti for right-hand sides in the original
// (pre-permutation) ordering.
func (f *Factors) SolveOriginalMulti(b []float64, nrhs int) ([]float64, error) {
	return f.treeSolver().SolveOriginalMulti(b, nrhs)
}

// state is the scheduling state shared by all workers, guarded by mu.
// Contribution blocks (cbs, cbOwner) are written by the worker that factors
// a node and read by the worker that assembles its parent; the completion
// under mu that makes the parent's task ready establishes the
// happens-before edge. The same mutex orders the within-front jobs: a
// slave task is claimed and finished under mu, and a job's phase barrier
// (all tasks finished before the next StartPhase) is what lets its kernels
// read rows other workers wrote.
type state struct {
	mu   sync.Mutex
	cond *sync.Cond

	pool      sched.Pool
	unfin     []int // per upper node: unfinished child tasks
	remaining int   // tasks not yet completed
	inFlight  int   // tasks being processed right now
	err       error

	cbs     []*dense.Matrix
	cbOwner []int

	jobs  []*nodepar.Job // split fronts with claimable row-block tasks
	loads []int64        // per worker: elimination flops claimed and not yet finished

	stats Stats
}

// plan is the immutable task structure: which nodes form which tasks.
type plan struct {
	taskOf    []int   // node -> subtree-task root, or -1 for an individual task
	taskNodes [][]int // subtree root -> member nodes in postorder (nil otherwise)
	peaks     []int64 // sequential subtree peaks (task memory cost for subtrees)
	flops     []int64 // per task root/node: elimination flops (workload accounting)
}

// Factorize factors the permuted matrix pa over its assembly tree with a
// pool of cfg.Workers goroutines. pa must carry numerical values.
func Factorize(pa *sparse.CSC, tree *assembly.Tree, cfg Config) (*Factors, error) {
	return FactorizeCtx(context.Background(), pa, tree, cfg)
}

// FactorizeCtx is Factorize under a context. Cancellation drains the
// pool deterministically: workers check the shared error at every
// task-claim boundary, finish the task they are on, and exit; the
// returned error names how many tasks were left unfinished and wraps the
// cancellation cause. No goroutines leak — the workers, the context
// watcher and a bound store's background goroutines all stop. A
// Background context costs nothing (no watcher is spawned).
func FactorizeCtx(ctx context.Context, pa *sparse.CSC, tree *assembly.Tree, cfg Config) (*Factors, error) {
	sh, err := front.NewShared(pa, tree)
	if err != nil {
		return nil, err // already carries the front: context
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.PivotTol == 0 {
		cfg.PivotTol = 1e-12
	}
	if cfg.BlockRows == 0 {
		cfg.BlockRows = dense.DefaultBlockRows
	}
	if cfg.BlockRows < 0 {
		cfg.BlockRows = 0 // element-wise kernels
	}
	if cfg.Workers == 1 || cfg.BlockRows == 0 {
		// One worker has no slaves to fan out to, and the split path runs
		// on the blocked kernels; either way the factors are the same bits.
		cfg.FrontSplit = 0
	}
	if cfg.RootGrid >= 0 {
		cfg.gridPR, cfg.gridPC = nodepar.AutoGrid(cfg.Workers, cfg.RootGrid)
	}
	peaks := assembly.SequentialPeaks(tree)
	if cfg.PeakBound <= 0 {
		cfg.PeakBound = assembly.TreePeak(peaks, tree)
	}
	if cfg.InSubtree == nil {
		cfg.InSubtree = func(int) bool { return false }
	}

	pl, err := buildPlan(tree, cfg.SubtreeRoots, peaks)
	if err != nil {
		return nil, err
	}

	f := &Factors{
		Tree:   tree,
		Kind:   pa.Kind,
		N:      pa.N,
		faults: cfg.Faults,
	}
	var meter *memory.Meter
	f.store, f.fs, meter = front.ResolveStore(cfg.Store, tree, pa.Kind, cfg.Meter)
	front.BindStoreContext(ctx, f.store)
	st := &state{
		unfin:   make([]int, tree.Len()),
		cbs:     make([]*dense.Matrix, tree.Len()),
		cbOwner: make([]int, tree.Len()),
		loads:   make([]int64, cfg.Workers),
	}
	kern := cfg.Kernel.Resolve() // auto picks simd or fast here, so stats name the family that ran
	f.kern = kern
	st.cond = sync.NewCond(&st.mu)
	st.stats.Workers = cfg.Workers
	st.stats.PeakBound = cfg.PeakBound
	st.stats.Kernel = kern.String()
	for i := range tree.Nodes {
		st.unfin[i] = len(tree.Nodes[i].Children)
	}
	// Seed the pool with the initially ready tasks — every subtree task
	// (self-contained) and every individual node without children — in
	// reverse postorder of their first node, so the LIFO top is the
	// earliest task in postorder and a single depth-first worker replays
	// the sequential traversal exactly.
	post := tree.Postorder()
	for i := len(post) - 1; i >= 0; i-- {
		ni := post[i]
		if r := pl.taskOf[ni]; r >= 0 {
			// A subtree task's seeding position is its *first* postorder
			// node, so the LIFO pop order matches the sequential schedule.
			if pl.taskNodes[r][0] == ni {
				st.pool.Push(r)
			}
		} else if st.unfin[ni] == 0 {
			st.pool.Push(ni)
		}
	}
	for i := range tree.Nodes {
		if pl.taskOf[i] == i || pl.taskOf[i] < 0 {
			st.remaining++
		}
	}
	st.stats.Tasks = st.remaining

	tracker := memory.NewSafeTracker(cfg.Workers)
	if cfg.Tracer != nil {
		// Observers run under the instruments' own locks, so the recorded
		// counter samples are the exact gauge histories: the trace's
		// "resident" maximum equals Stats.ResidentPeak bit for bit.
		f.tracer = cfg.Tracer
		cfg.Tracer.EnsureWorkers(cfg.Workers)
		meter.Observe(cfg.Tracer.MeterObserver())
		tracker.Observe(cfg.Tracer.TrackerObserver())
		// Arm the progress ledger with the analysis-time denominators so a
		// live /metrics or /progress scrape reports completion and an ETA.
		cfg.Tracer.SetTotals(int64(tree.Len()), assembly.TotalFlops(tree))
	}
	if ctx.Done() != nil {
		// The watcher is the only way a cond.Wait-blocked worker can
		// observe cancellation: it poisons the shared error and wakes
		// everyone. It exits with the pool (stop closes below) so a
		// never-cancelled run leaks nothing.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				st.mu.Lock()
				if st.err == nil {
					st.err = fmt.Errorf("parmf: cancelled: %w", context.Cause(ctx))
				}
				st.cond.Broadcast()
				st.mu.Unlock()
			case <-stop:
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker{id: id, cfg: cfg, sh: sh, st: st, pl: pl, tracker: tracker,
				out: f.store, meter: meter, asm: front.NewAssembler(sh),
				arena: front.NewArena(), kern: kern, tr: cfg.Tracer}.run()
		}(w)
	}
	wg.Wait()

	if st.err != nil {
		st.stats.CancelledTasks = int64(st.remaining)
		return nil, fmt.Errorf("parmf: pool drained with %d of %d tasks unfinished: %w",
			st.remaining, st.stats.Tasks, st.err)
	}
	if err := f.store.Flush(); err != nil {
		return nil, fmt.Errorf("parmf: flush factor store: %w", err)
	}
	f.Stats = st.stats
	f.Stats.Retries, f.Stats.DegradedBlocks = front.StoreFaultCounters(f.store)
	f.Stats.ResidentPeak = meter.Peak()
	for w := 0; w < cfg.Workers; w++ {
		f.Stats.WorkerPeaks = append(f.Stats.WorkerPeaks, tracker.ActivePeak(w))
		f.Stats.WorkerStackPeaks = append(f.Stats.WorkerStackPeaks, tracker.StackPeak(w))
		f.Stats.FinalStack += tracker.Stack(w)
		if p := tracker.ActivePeak(w); p > f.Stats.PeakStack {
			f.Stats.PeakStack = p
		}
	}
	return f, nil
}

// buildPlan derives the task structure from the subtree roots: each root's
// descendant set becomes one task with its nodes in global postorder.
func buildPlan(tree *assembly.Tree, roots []int, peaks []int64) (*plan, error) {
	pl := &plan{
		taskOf:    make([]int, tree.Len()),
		taskNodes: make([][]int, tree.Len()),
		peaks:     peaks,
	}
	for i := range pl.taskOf {
		pl.taskOf[i] = -1
	}
	for _, r := range roots {
		if r < 0 || r >= tree.Len() {
			return nil, fmt.Errorf("parmf: subtree root %d out of range", r)
		}
		stack := []int{r}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if pl.taskOf[n] >= 0 {
				return nil, fmt.Errorf("parmf: node %d in two subtree tasks (%d and %d)",
					n, pl.taskOf[n], r)
			}
			pl.taskOf[n] = r
			stack = append(stack, tree.Nodes[n].Children...)
		}
	}
	// Member lists in global postorder (a complete subtree is a contiguous
	// postorder segment, so per-task order == global order restriction).
	for _, ni := range tree.Postorder() {
		if r := pl.taskOf[ni]; r >= 0 {
			pl.taskNodes[r] = append(pl.taskNodes[r], ni)
		}
	}
	// Task workloads: a node's elimination flops, summed over the members
	// for a subtree task (inputs to the workload-based slave selection).
	pl.flops = make([]int64, tree.Len())
	for i := range tree.Nodes {
		pl.flops[i] = assembly.EliminationFlops(&tree.Nodes[i], tree.Kind)
	}
	for _, r := range roots {
		var s int64
		for _, ni := range pl.taskNodes[r] {
			s += assembly.EliminationFlops(&tree.Nodes[ni], tree.Kind)
		}
		pl.flops[r] = s
	}
	return pl, nil
}

// taskCost returns the memory Algorithm 2 charges a task with: the whole
// sequential subtree peak for a subtree task, the front size for a node.
func (pl *plan) taskCost(task int, tree *assembly.Tree) int64 {
	if pl.taskOf[task] == task {
		return pl.peaks[task]
	}
	return assembly.FrontEntries(&tree.Nodes[task], tree.Kind)
}

// taskFlops returns the elimination flops a task adds to its worker's
// workload while claimed.
func (pl *plan) taskFlops(task int) int64 { return pl.flops[task] }

type worker struct {
	id      int
	cfg     Config
	sh      *front.Shared
	st      *state
	pl      *plan
	tracker *memory.SafeTracker
	out     front.Store
	meter   *memory.Meter
	asm     *front.Assembler
	arena   *front.Arena // front/CB slab recycler; single-threaded, see front.Arena
	kern    dense.Kernel
	tr      *trace.Tracer // nil when untraced (every method no-ops)
}

// taskResult carries a finished task's bookkeeping back under the lock.
type taskResult struct {
	task            int
	err             error
	fronts          int
	maxFront        int
	factorEntries   int64
	assemblyOps     int64
	consumedForeign bool // popped a CB from another worker's stack
}

func (w worker) run() {
	st := w.st
	var done *taskResult
	for {
		st.mu.Lock()
		if done != nil {
			w.completeLocked(done)
			done = nil
		}
		var task int
		waited := false
		for {
			if st.err != nil || st.remaining == 0 {
				st.mu.Unlock()
				return
			}
			// Row-block tasks of split fronts come first: they are small,
			// they unblock a waiting master, and the paper gives dynamic
			// slave tasks priority over new node activations.
			if job, i := w.claimBlockLocked(); job != nil {
				w.runBlockLocked(job, i)
				continue
			}
			t, ok := w.selectLocked()
			if ok {
				task = t
				break
			}
			// One idle episode counts once, however many broadcasts wake
			// and re-block the worker before work appears.
			if !waited {
				st.stats.Waits++
				waited = true
			}
			st.cond.Wait()
		}
		st.loads[w.id] += w.pl.taskFlops(task)
		st.inFlight++
		st.mu.Unlock()

		w.tr.Instant(w.id, trace.EvClaim, task, 0)
		done = w.processTask(task)
	}
}

// claimBlockLocked looks for a claimable row-block task across the active
// split-front jobs, preferring blocks the slave selection assigned to this
// worker before stealing any pending one.
func (w worker) claimBlockLocked() (*nodepar.Job, int) {
	for _, j := range w.st.jobs {
		if i := j.ClaimPreferred(w.id); i >= 0 {
			return j, i
		}
	}
	for _, j := range w.st.jobs {
		if i := j.Claim(w.id); i >= 0 {
			return j, i
		}
	}
	return nil, -1
}

// runBlockLocked executes one claimed row-block task: it releases the
// scheduling lock, charges the block's share of the front surface to this
// worker's tracker for the duration of the kernel (the paper's per-slave
// memory), runs it, and reacquires the lock to report completion — waking
// everyone when the phase barrier falls. Called and returns with st.mu
// held.
func (w worker) runBlockLocked(job *nodepar.Job, i int) {
	st := w.st
	entries := job.TaskEntries(i)
	flops := job.TaskFlops(i)
	st.stats.SlaveTasks++
	if p := job.Pref(i); p >= 0 && p != w.id {
		st.stats.SlaveSteals++
	}
	st.loads[w.id] += flops
	st.mu.Unlock()

	// No meter delta: the rows are already resident under the front the
	// master allocated; the tracker charge is the per-worker model share.
	// The kernel runs unlocked with panic containment: a panicking tile
	// must still Finish, or the job's phase barrier never falls and the
	// master hangs.
	w.tr.Begin(w.id, trace.SpanTile, job.Node)
	w.tracker.AllocFront(w.id, entries)
	perr := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("parmf: worker %d: panic in row-block task %d of front %d: %v",
					w.id, i, job.Node, p)
			}
		}()
		job.Run(i)
		return nil
	}()
	w.tracker.FreeFront(w.id, entries)
	w.tr.End(w.id, trace.SpanTile, job.Node)

	st.mu.Lock()
	st.loads[w.id] -= flops
	if perr != nil && st.err == nil {
		st.err = perr
	}
	if job.Finish(i) || perr != nil {
		st.cond.Broadcast()
	}
}

// completeLocked folds a finished task back into the shared state and wakes
// waiters when the completion could unblock them: a new ready task, freed
// stack headroom on another worker, the pool draining, an error, or the
// worker fleet going idle (the forced-activation path needs a wake-up).
func (w worker) completeLocked(r *taskResult) {
	st := w.st
	st.inFlight--
	st.loads[w.id] -= w.pl.taskFlops(r.task)
	pushed := false
	if r.err != nil {
		if st.err == nil {
			st.err = r.err
		}
	} else {
		st.remaining--
		st.stats.Fronts += r.fronts
		if r.maxFront > st.stats.MaxFront {
			st.stats.MaxFront = r.maxFront
		}
		st.stats.FactorEntries += r.factorEntries
		st.stats.AssemblyOps += r.assemblyOps
		if p := w.sh.Tree.Nodes[r.task].Parent; p >= 0 {
			st.unfin[p]--
			if st.unfin[p] == 0 {
				st.pool.Push(p)
				pushed = true
			}
		}
	}
	if pushed || r.consumedForeign || st.err != nil || st.remaining == 0 || st.inFlight == 0 {
		st.cond.Broadcast()
	}
}

// selectLocked picks the next task under st.mu, returning (task, true) or
// (0, false) when the worker should wait. The memory-aware policy runs
// Algorithm 2 with this worker's stack as the current occupation; when the
// chosen task would exceed the bound it is only activated if it is subtree
// work (Algorithm 2 takes those unconditionally) or no other work is in
// flight anywhere (otherwise waiting is safe and cheaper).
func (w worker) selectLocked() (int, bool) {
	st := w.st
	if st.pool.Empty() {
		return 0, false
	}
	if w.cfg.Policy == DepthFirst {
		return st.pool.PopTop(), true
	}
	tree := w.sh.Tree
	myStack := w.tracker.Stack(w.id)
	bound := w.cfg.PeakBound
	if p := w.tracker.ActivePeak(w.id); p > bound {
		bound = p
	}
	inSubtree := func(task int) bool {
		return w.pl.taskOf[task] == task || w.cfg.InSubtree(task)
	}
	cost := func(task int) int64 { return w.pl.taskCost(task, tree) }

	// Fast path: Algorithm 2 returns the top task when it is subtree work
	// or fits the bound; skip the pool scan (and its copy) in that case.
	top := st.pool.Peek()
	k := 0
	if !inSubtree(top) && myStack+cost(top) > bound {
		k = sched.SelectMemoryAware(&st.pool, sched.TaskInfo{
			InSubtree: inSubtree,
			MemCost:   cost,
		}, myStack, bound)
	}
	task := top
	if k > 0 {
		task = st.pool.At(k)
	}
	// Gate against the same effective bound the scan used: a task under the
	// raised (observed-peak) bound cannot raise this worker's peak, so it
	// is neither worth waiting out nor a forced over-bound activation.
	over := myStack+cost(task) > bound
	if over && !inSubtree(task) && st.inFlight > 0 {
		return 0, false // headroom will appear when someone finishes
	}
	st.pool.PopAt(k)
	if k > 0 {
		st.stats.Deviations++
	}
	if over {
		st.stats.Forced++
	}
	return task, true
}

// processTask runs a task without holding st.mu: a single node, or a whole
// leaf subtree in postorder. Panics in the numeric work (kernels,
// assembly, injected faults) are contained here — converted into a
// wrapped error carrying the worker id and front index — so one bad
// front fails the run descriptively instead of killing the process. The
// containment covers only unlocked execution: an invariant panic fired
// under st.mu (nodepar phase bookkeeping) cannot be recovered without
// leaving the scheduler lock held.
func (w worker) processTask(task int) (r *taskResult) {
	r = &taskResult{task: task}
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("parmf: worker %d: panic in task %d: %v", w.id, task, p)
		}
	}()
	nodes := []int{task}
	span := trace.SpanTask
	if w.pl.taskOf[task] == task {
		nodes = w.pl.taskNodes[task]
		span = trace.SpanSubtree
	}
	w.tr.Begin(w.id, span, task)
	for _, ni := range nodes {
		if err := w.processNode(ni, r); err != nil {
			r.err = err
			break
		}
	}
	w.tr.End(w.id, span, task)
	return r
}

// processNode assembles, eliminates and extracts node ni. The per-worker
// memory accounting mirrors seqmf exactly (front allocated with children
// CBs still stacked, children popped after extend-add, front freed before
// the CB is stacked), except that a split front charges its master only
// the master part — the slave row blocks are charged to whoever runs
// their tasks, as the paper's type-2 accounting does.
func (w worker) processNode(ni int, r *taskResult) error {
	if err := w.cfg.Faults.Check(faults.Task, ni); err != nil {
		return fmt.Errorf("parmf: worker %d: node %d: %w", w.id, ni, err)
	}
	tree := w.sh.Tree
	nd := &tree.Nodes[ni]
	npiv := nd.NPiv()
	nf := nd.NFront()
	rows := w.asm.Begin(ni)

	split := w.splitFront(ni)
	fe := assembly.FrontEntries(nd, tree.Kind)
	charge := fe
	if split {
		charge = assembly.MasterEntries(nd, tree.Kind)
	}
	w.tracker.AllocFront(w.id, charge)
	w.meter.Add(fe)
	fr := w.arena.Matrix(nf, nf)
	w.tr.Begin(w.id, trace.SpanAssemble, ni)
	err := w.asm.Scatter(ni, fr)
	w.tr.End(w.id, trace.SpanAssemble, ni)
	if err != nil {
		return err
	}

	if len(nd.Children) > 0 {
		w.tr.Begin(w.id, trace.SpanExtendAdd, ni)
		for _, c := range nd.Children {
			n, err := w.asm.ExtendAdd(ni, fr, c, w.st.cbs[c])
			if err != nil {
				w.tr.End(w.id, trace.SpanExtendAdd, ni)
				return err
			}
			r.assemblyOps += n
		}
		w.tr.End(w.id, trace.SpanExtendAdd, ni)
	}
	for _, c := range nd.Children {
		owner := w.st.cbOwner[c]
		if owner != w.id {
			r.consumedForeign = true
		}
		ce := assembly.CBEntries(&tree.Nodes[c], tree.Kind)
		w.tracker.PopCB(owner, ce)
		w.meter.Add(-ce)
		// The consumed CB recycles into *this* worker's arena, whoever
		// produced it: this worker owns it now, and the scheduling mutex
		// ordered the handoff.
		w.arena.Free(w.st.cbs[c])
		w.st.cbs[c] = nil
	}

	w.tr.Begin(w.id, trace.SpanFactor, ni)
	if split {
		err = w.runSplitFront(ni, fr, r)
	} else if kerr := front.EliminateKernel(fr, npiv, tree.Kind, w.cfg.PivotTol, w.cfg.BlockRows, w.kern); kerr != nil {
		err = fmt.Errorf("parmf: node %d (front %d, npiv %d): %w", ni, nf, npiv, kerr)
	}
	w.tr.End(w.id, trace.SpanFactor, ni)
	if err != nil {
		return err
	}

	// The block becomes store-owned (an out-of-core store releases its
	// memory once the background writer has spilled it; Put may briefly
	// block this worker while the write buffer is over budget).
	facE := assembly.FactorEntries(nd, tree.Kind)
	if err := w.out.Put(ni, front.ExtractFactor(fr, rows, npiv, tree.Kind), facE); err != nil {
		return fmt.Errorf("parmf: node %d: %w", ni, err)
	}
	w.tr.Instant(w.id, trace.EvPut, ni, facE*8)
	w.tracker.AddFactors(w.id, facE)
	w.tracker.FreeFront(w.id, charge)
	w.meter.Add(-fe)

	if cb := front.ExtractCB(w.arena, fr, npiv, nd.NCB(), tree.Kind); cb != nil {
		w.st.cbs[ni] = cb
		w.st.cbOwner[ni] = w.id
		w.tracker.PushCB(w.id, assembly.CBEntries(nd, tree.Kind))
		w.meter.Add(assembly.CBEntries(nd, tree.Kind))
	}
	// The front is dead (factor block extracted, CB copied out): recycle.
	// For a split front this is safe — every row-block task finished
	// under the phase barriers before runSplitFront returned.
	w.arena.Free(fr)

	r.fronts++
	if nf > r.maxFront {
		r.maxFront = nf
	}
	r.factorEntries += facE
	// Progress uses per-node elimination flops directly (pl.flops holds
	// subtree sums for subtree roots, which would double-count).
	w.tr.FrontDone(assembly.EliminationFlops(nd, tree.Kind))
	return nil
}

// splitFront reports whether node ni's front runs through the within-front
// master/slave path: an individual (non-subtree) task whose front reaches
// the splitting threshold and spans more than one row block. Subtree nodes
// stay whole — the paper processes leaf subtrees entirely on one processor.
func (w worker) splitFront(ni int) bool {
	if w.cfg.FrontSplit <= 0 || w.pl.taskOf[ni] >= 0 {
		return false
	}
	nf := w.sh.Tree.Nodes[ni].NFront()
	return nf >= w.cfg.FrontSplit && nf > w.cfg.BlockRows
}

// runSplitFront factors an assembled front as a master task plus slave
// tile tasks: for each pivot panel the master eliminates the panel's
// master part, then fans the panel's phase waves out through the shared
// job list — idle workers claim them (preferring the tiles the slave
// selection or the 2D grid assigned to them) and the master joins in
// itself, so progress never depends on anyone else being free. Phases are
// barriers; the factors are bitwise identical to the sequential blocked
// kernel because every tile computes the same bits wherever it runs.
//
// The decomposition is the paper's two split shapes behind one Partition:
// non-root fronts use the 1D row blocking (type 2) with the dynamic slave
// selection, and root fronts — when the root grid is enabled — use the 2D
// block-cyclic tile grid (type 3), whose diagonal-tile master and per-tile
// update tasks remove the root's serial U sweep and task shortage.
func (w worker) runSplitFront(ni int, fr *dense.Matrix, r *taskResult) error {
	st, tree := w.st, w.sh.Tree
	nd := &tree.Nodes[ni]
	npiv, nf := nd.NPiv(), nd.NFront()
	isRoot := nd.Parent < 0

	var part nodepar.Partition
	st.mu.Lock()
	if isRoot && w.cfg.gridPR > 0 {
		part = nodepar.NewTilePartition(tree.Kind, nf, npiv, w.cfg.BlockRows,
			w.cfg.gridPR, w.cfg.gridPC, w.cfg.Workers)
		st.stats.Root2DFronts++
	} else {
		rp := nodepar.NewRowPartition(tree.Kind, nf, npiv, w.cfg.BlockRows)
		w.assignSlavesLocked(nd, rp.Blocks)
		part = rp
	}
	job := nodepar.NewJob(ni, fr, npiv, tree.Kind, w.cfg.PivotTol, part, w.kern)
	st.stats.SplitFronts++
	st.mu.Unlock()

	var rootT0 time.Time
	if isRoot {
		rootT0 = time.Now()
	}

	published := false
	defer func() {
		if published {
			st.mu.Lock()
			for k, j := range st.jobs {
				if j == job {
					st.jobs = append(st.jobs[:k], st.jobs[k+1:]...)
					break
				}
			}
			st.mu.Unlock()
		}
	}()

	for _, p := range job.Panels() {
		w.tr.Begin(w.id, trace.SpanMaster, ni)
		err := job.RunMaster(p)
		w.tr.End(w.id, trace.SpanMaster, ni)
		if err != nil {
			return fmt.Errorf("parmf: node %d (front %d, npiv %d): %w", ni, nf, npiv, err)
		}
		for _, ph := range job.Phases() {
			st.mu.Lock()
			if job.StartPhase(p, ph) == 0 {
				st.mu.Unlock()
				continue
			}
			if !published {
				st.jobs = append(st.jobs, job)
				published = true
			}
			st.cond.Broadcast()
			for st.err == nil && !job.PhaseDone() {
				if i := job.Claim(w.id); i >= 0 {
					w.runBlockLocked(job, i)
					continue
				}
				st.cond.Wait()
			}
			err := st.err
			st.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	if isRoot {
		ns := time.Since(rootT0).Nanoseconds()
		st.mu.Lock()
		if ns > st.stats.RootFrontNs {
			st.stats.RootFrontNs = ns
		}
		st.mu.Unlock()
	}
	return nil
}

// assignSlavesLocked runs the configured slave-selection heuristic against
// the workers' live state and stamps the preferred owners onto the row
// blocks. Preferences steer claiming only — any idle worker (and the
// master) may still run any block, so liveness never depends on the
// selection. Called under st.mu.
func (w worker) assignSlavesLocked(nd *assembly.Node, blocks []nodepar.Block) {
	if w.cfg.Workers <= 1 {
		return
	}
	cands := make([]int, 0, w.cfg.Workers-1)
	for q := 0; q < w.cfg.Workers; q++ {
		if q != w.id {
			cands = append(cands, q)
		}
	}
	kind := w.sh.Tree.Kind
	npiv, nf := nd.NPiv(), nd.NFront()
	firstK1 := w.cfg.BlockRows
	if firstK1 > npiv {
		firstK1 = npiv
	}
	slaveRows := nf - firstK1
	if slaveRows <= 0 {
		return
	}
	var allocs []sched.Allocation
	switch w.cfg.SlavePolicy {
	case SlavesWorkload:
		allocs = sched.SelectSlavesWorkload(cands, w.st.loads[w.id], w.st.loads,
			slaveRows, nodepar.MasterFlops(kind, npiv, nf), nodepar.RowFlops(kind, npiv, nf))
	default:
		metric := func(q int) int64 { return w.tracker.Active(q) }
		allocs = sched.SelectSlavesMemory(cands, metric, nf, slaveRows, w.tracker.MaxActivePeak())
	}
	nodepar.AssignPrefs(blocks, firstK1, allocs)
}
