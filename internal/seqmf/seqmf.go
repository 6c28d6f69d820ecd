// Package seqmf is the sequential numeric multifrontal solver: it factors a
// permuted sparse matrix by walking the assembly tree in postorder,
// assembling each front (original entries + children contribution blocks
// via extend-add), running a partial dense factorization, and stacking the
// contribution block for the parent — exactly the storage scheme of
// Section 2 of the paper (factors area / CB stack / active front).
//
// The per-front kernels (assembly, partial factorization, extraction and
// the triangular solves) live in internal/front and are shared with the
// shared-memory parallel executor internal/parmf; this package contributes
// the postorder walk and the single-stack memory accounting.
//
// It is the sequential reference, not a production path: every numeric
// factorization runs through the parallel executor (core.Analysis's
// FactorizeParallel methods), which at one worker reproduces this
// package's factors bitwise and its Stats exactly. The executor test
// suites cross-validate against this independent, single-goroutine walk.
//
// Factor blocks are owned by a front.Store, not by this package: the
// default in-memory store keeps them all resident (classic in-core
// execution), while an ooc.FileStore spills each block to disk as soon as
// it is produced, so only the stack stays in memory — the paper's
// out-of-core execution model. Stats.ResidentPeak measures the difference.
//
// Symmetric positive definite matrices use partial Cholesky; unsymmetric
// matrices use partial LU on the symmetrized structure. Pivoting is static
// (see dense.ErrSmallPivot).
package seqmf

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/assembly"
	"repro/internal/dense"
	"repro/internal/faults"
	"repro/internal/front"
	"repro/internal/memory"
	"repro/internal/sparse"
)

// Stats records the memory and work of a factorization in the
// executor-independent format shared with internal/parmf, in the units
// of the assembly cost model (logical entries: triangles for symmetric).
type Stats = memory.ExecStats

// Factors holds the numeric factorization.
type Factors struct {
	Tree  *assembly.Tree
	Kind  sparse.Type
	N     int
	Stats Stats

	store front.Store
	fs    *front.Factors // non-nil when store is the in-memory one
	kern  dense.Kernel   // kernel family the factorization ran with

	solveOnce sync.Once
	solver    *front.Solver
}

// Front exposes the in-memory per-node factor container (used by the
// parallel executor's cross-validation tests); nil when the
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

// Options configures the numeric factorization.
type Options struct {
	// PivotTol is the minimum pivot magnitude for LU.
	PivotTol float64
	// BlockRows, when positive, routes the partial factorizations through
	// the blocked (panel + row-block) dense kernels with this panel width
	// — the same numeric path the parallel executor's within-front tasks
	// use, and bitwise identical to the element-wise kernels (0).
	BlockRows int
	// Kernel selects the dense kernel family (dense.KernelDefault,
	// KernelFast, KernelSIMD, or KernelAuto, which resolves to SIMD when
	// the vector path is available and fast otherwise). The non-default
	// families trade the bitwise guarantee for speed, validated by
	// residual, and stay deterministic for a fixed BlockRows.
	Kernel dense.Kernel
	// Store receives each front's factor block the moment it is
	// extracted; nil keeps factors in memory (front.Factors).
	Store front.Store
	// Meter, when non-nil, replaces the internal resident-memory meter —
	// pass one to share accounting with an enclosing measurement.
	Meter *memory.Meter
	// Faults, when non-nil, arms deterministic fault injection at the
	// walk's task point (see internal/faults). nil is a zero-cost no-op.
	Faults *faults.Injector
}

// DefaultOptions returns the standard settings.
func DefaultOptions() Options { return Options{PivotTol: 1e-12} }

// Factorize factors the permuted matrix pa whose assembly tree is tree.
// pa must carry numerical values.
func Factorize(pa *sparse.CSC, tree *assembly.Tree, opt Options) (*Factors, error) {
	return FactorizeCtx(context.Background(), pa, tree, opt)
}

// FactorizeCtx is Factorize under a context: the walk checks ctx between
// fronts and returns a descriptive cancellation error naming how far it
// got; a bound fault-tolerant store (ooc.FileStore) stops its background
// goroutines promptly too. A Background context costs nothing.
func FactorizeCtx(ctx context.Context, pa *sparse.CSC, tree *assembly.Tree, opt Options) (*Factors, error) {
	sh, err := front.NewShared(pa, tree)
	if err != nil {
		return nil, err // already carries the front: context
	}
	f := &Factors{
		Tree: tree,
		Kind: pa.Kind,
		N:    pa.N,
	}
	kern := opt.Kernel.Resolve() // auto picks simd or fast here, so stats name the family that ran
	f.kern = kern
	f.Stats.Kernel = kern.String()
	var meter *memory.Meter
	f.store, f.fs, meter = front.ResolveStore(opt.Store, tree, pa.Kind, opt.Meter)
	front.BindStoreContext(ctx, f.store)
	asm := front.NewAssembler(sh)
	arena := front.NewArena() // fronts and CBs recycle through here

	cbs := make([]*dense.Matrix, tree.Len()) // live contribution blocks
	var stack int64                          // live CB entries (model units)
	bump := func(cur int64) {
		if cur > f.Stats.PeakStack {
			f.Stats.PeakStack = cur
		}
	}

	// processNode runs one front's numeric work with panic containment: a
	// kernel or assembly panic becomes a wrapped error naming the node
	// instead of killing the process.
	processNode := func(ni int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("seqmf: panic at node %d (phase factorize): %v", ni, p)
			}
		}()
		if err := opt.Faults.Check(faults.Task, ni); err != nil {
			return fmt.Errorf("seqmf: node %d: %w", ni, err)
		}
		nd := &tree.Nodes[ni]
		npiv := nd.NPiv()
		nf := nd.NFront()
		rows := asm.Begin(ni)

		fr := arena.Matrix(nf, nf)
		frontEntries := assembly.FrontEntries(nd, tree.Kind)
		meter.Add(frontEntries)
		bump(stack + frontEntries)

		if err := asm.Scatter(ni, fr); err != nil {
			return err
		}

		// Extend-add children, then free their CBs.
		for _, c := range nd.Children {
			ops, err := asm.ExtendAdd(ni, fr, c, cbs[c])
			if err != nil {
				return err
			}
			f.Stats.AssemblyOps += ops
		}
		for _, c := range nd.Children {
			ce := assembly.CBEntries(&tree.Nodes[c], tree.Kind)
			stack -= ce
			meter.Add(-ce)
			arena.Free(cbs[c])
			cbs[c] = nil
		}
		bump(stack + frontEntries)

		// Partial factorization.
		if err := front.EliminateKernel(fr, npiv, pa.Kind, opt.PivotTol, opt.BlockRows, kern); err != nil {
			return fmt.Errorf("seqmf: node %d (front %d, npiv %d): %w", ni, nf, npiv, err)
		}

		// The factor block becomes store-owned: resident until the store
		// lets go of it (never for in-memory, once spilled for OOC).
		fe := assembly.FactorEntries(nd, tree.Kind)
		if err := f.store.Put(ni, front.ExtractFactor(fr, rows, npiv, pa.Kind), fe); err != nil {
			return fmt.Errorf("seqmf: node %d: %w", ni, err)
		}
		f.Stats.FactorEntries += fe
		f.Stats.Fronts++
		if nf > f.Stats.MaxFront {
			f.Stats.MaxFront = nf
		}
		meter.Add(-frontEntries)

		// Stack the contribution block; the dead front recycles.
		if cb := front.ExtractCB(arena, fr, npiv, nd.NCB(), tree.Kind); cb != nil {
			cbs[ni] = cb
			ce := assembly.CBEntries(nd, tree.Kind)
			stack += ce
			meter.Add(ce)
			bump(stack)
		}
		arena.Free(fr)
		return nil
	}

	for k, ni := range tree.Postorder() {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("seqmf: cancelled at node %d (%d of %d fronts done): %w",
				ni, k, tree.Len(), context.Cause(ctx))
		}
		if err := processNode(ni); err != nil {
			return nil, err
		}
	}
	f.Stats.FinalStack = stack
	if err := f.store.Flush(); err != nil {
		return nil, fmt.Errorf("seqmf: flush factor store: %w", err)
	}
	f.Stats.Retries, f.Stats.DegradedBlocks = front.StoreFaultCounters(f.store)
	f.Stats.ResidentPeak = meter.Peak()
	return f, nil
}

// solve returns the lazily built reusable solver (cached walk orders and
// scratch panel) running the factorization's kernel family.
func (f *Factors) solve() *front.Solver {
	f.solveOnce.Do(func() { f.solver = front.NewSolver(f.store, f.Tree, f.Kind, f.kern) })
	return f.solver
}

// Solve solves A x = b for the permuted system (b and the result are in the
// permuted index space; see SolveOriginal for the original ordering).
// b is not modified.
func (f *Factors) Solve(b []float64) ([]float64, error) {
	if len(b) != f.N {
		return nil, fmt.Errorf("seqmf: rhs length %d, want %d", len(b), f.N)
	}
	return f.solve().SolveMulti(b, 1)
}

// SolveMulti solves nrhs systems at once: b is n x nrhs row-major and
// the result has the same shape. The factors stream through the store in
// one forward and one backward pass total, however many right-hand sides
// ride along; each column carries the exact bits of a single-RHS Solve.
func (f *Factors) SolveMulti(b []float64, nrhs int) ([]float64, error) {
	return f.solve().SolveMulti(b, nrhs)
}

// SolveOriginal solves for a right-hand side given in the *original*
// (pre-permutation) ordering, returning x in the original ordering.
func (f *Factors) SolveOriginal(b []float64) ([]float64, error) {
	if len(b) != f.N {
		return nil, fmt.Errorf("seqmf: rhs length %d, want %d", len(b), f.N)
	}
	return f.solve().SolveOriginalMulti(b, 1)
}

// SolveOriginalMulti is SolveMulti for right-hand sides given in the
// original (pre-permutation) ordering.
func (f *Factors) SolveOriginalMulti(b []float64, nrhs int) ([]float64, error) {
	return f.solve().SolveOriginalMulti(b, nrhs)
}
