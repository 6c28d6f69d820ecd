package core_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ooc"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// chaosResult is one armed run's outcome: the solution when it
// completed, the first error otherwise, and the executor stats either
// way (partial on failure).
type chaosResult struct {
	x     []float64
	stats parmf.Stats
	err   error
}

// runChaos executes one 4-worker out-of-core factorize+solve with the
// given injector armed on everything (executor task points, the store's
// spill I/O points, the solve point) and the spill buffer squeezed so
// blocks really travel through the fault paths.
func runChaos(t *testing.T, a *sparse.CSC, in *faults.Injector, ctx context.Context) chaosResult {
	t.Helper()
	return runChaosOn(t, a, 4, in, ctx)
}

// runChaosOn is runChaos on the given number of workers.
func runChaosOn(t *testing.T, a *sparse.CSC, workers int, in *faults.Injector, ctx context.Context) chaosResult {
	t.Helper()
	cfg := core.DefaultConfig(order.ND, 4)
	cfg.OOC = ooc.Options{
		Dir:           t.TempDir(),
		BufferEntries: 1 << 11,
		RetryMax:      2,
		RetryBase:     50 * time.Microsecond,
	}
	cfg.Faults = in
	an, err := core.Analyze(a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pf, st, err := an.FactorizeParallelOOCCtx(ctx, parmf.DefaultConfig(workers))
	if err != nil {
		return chaosResult{err: err}
	}
	defer st.Close()
	b := make([]float64, a.N)
	rng := rand.New(rand.NewSource(3))
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := pf.Solver(0).SolveOriginalMultiCtx(ctx, b, 1)
	if err != nil {
		return chaosResult{stats: pf.Stats, err: err}
	}
	return chaosResult{x: x, stats: pf.Stats}
}

// assertBitwise asserts a completed chaos run reproduced the clean run's
// solution bit for bit — fault handling must be numerically invisible.
func assertBitwise(t *testing.T, ref, got []float64) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("solution length %d, want %d", len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("solution diverged at %d: %g vs %g (fault handling must not change numerics)", i, got[i], ref[i])
		}
	}
}

// assertDescriptive asserts a failed chaos run surfaced a real error: a
// wrapped faults.ErrInjected (or context cause) with enough text to
// debug from, never a bare or empty failure.
func assertDescriptive(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatal("run succeeded, expected a descriptive error")
	}
	if msg := err.Error(); len(msg) < 10 || !strings.Contains(msg, want) {
		t.Fatalf("error %q is not descriptive (want substring %q)", msg, want)
	}
}

// TestChaosSuite sweeps deterministic fault schedules over every
// workload problem through the parallel out-of-core path and asserts the
// robustness contract: every run either completes with a bitwise
// identical solution or fails with a descriptive error — and never
// hangs, panics the process, or leaks the result silently.
func TestChaosSuite(t *testing.T) {
	for _, p := range workload.SmallSuite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			a := p.Matrix()
			if !a.HasValues() {
				if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
					t.Fatal(err)
				}
			}
			clean := runChaos(t, a, nil, context.Background())
			if clean.err != nil {
				t.Fatalf("clean run failed: %v", clean.err)
			}
			if clean.stats.Retries != 0 || clean.stats.DegradedBlocks != 0 || clean.stats.CancelledTasks != 0 {
				t.Fatalf("clean run has nonzero fault counters: %+v", clean.stats)
			}

			t.Run("transient-write-retried", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.SpillWrite, Kind: faults.KindError, Nth: 2, Count: 3},
				), context.Background())
				if r.err != nil {
					t.Fatalf("transient write faults must be absorbed: %v", r.err)
				}
				assertBitwise(t, clean.x, r.x)
				if r.stats.Retries == 0 {
					t.Error("retries not reported in ExecStats")
				}
			})

			t.Run("short-write-repaired", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.SpillWrite, Kind: faults.KindShortWrite, Nth: 1, Count: 2},
				), context.Background())
				if r.err != nil {
					t.Fatalf("short writes must be repaired: %v", r.err)
				}
				assertBitwise(t, clean.x, r.x)
			})

			t.Run("persistent-write-degrades", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.SpillWrite, Kind: faults.KindError, Count: -1},
				), context.Background())
				if r.err != nil {
					t.Fatalf("persistent write failure must degrade, not fail: %v", r.err)
				}
				assertBitwise(t, clean.x, r.x)
				if r.stats.DegradedBlocks == 0 {
					t.Error("degraded blocks not reported in ExecStats")
				}
			})

			t.Run("write-delay-harmless", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.SpillWrite, Kind: faults.KindDelay, Nth: 3, Count: 4, Delay: time.Millisecond},
				), context.Background())
				if r.err != nil {
					t.Fatalf("delays must not fail the run: %v", r.err)
				}
				assertBitwise(t, clean.x, r.x)
			})

			t.Run("task-error-descriptive", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.Task, Kind: faults.KindError, Nth: 5},
				), context.Background())
				assertDescriptive(t, r.err, "node")
				if !errors.Is(r.err, faults.ErrInjected) {
					t.Errorf("error %v does not wrap faults.ErrInjected", r.err)
				}
			})

			t.Run("task-panic-contained", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.Task, Kind: faults.KindPanic, Nth: 3},
				), context.Background())
				assertDescriptive(t, r.err, "panic")
			})

			t.Run("read-error-fails-solve", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.SpillRead, Kind: faults.KindError, Count: -1},
				), context.Background())
				assertDescriptive(t, r.err, "read")
			})

			t.Run("decode-error-not-retried", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.Decode, Kind: faults.KindError, Nth: 2},
				), context.Background())
				assertDescriptive(t, r.err, "decode")
				if r.stats.Retries != 0 {
					t.Errorf("decode errors must not be retried (corruption, not transience); got %d retries", r.stats.Retries)
				}
			})

			t.Run("solve-error-descriptive", func(t *testing.T) {
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.Solve, Kind: faults.KindError, Nth: 4},
				), context.Background())
				assertDescriptive(t, r.err, "solve")
			})

			t.Run("cancel-drains", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				go func() {
					time.Sleep(2 * time.Millisecond)
					cancel()
				}()
				r := runChaos(t, a, faults.New(
					faults.Rule{Point: faults.Task, Kind: faults.KindDelay, Count: -1, Delay: time.Millisecond},
				), ctx)
				if r.err == nil {
					t.Skip("run won the race against cancellation")
				}
				if !errors.Is(r.err, context.Canceled) {
					t.Fatalf("cancelled run error %v does not wrap context.Canceled", r.err)
				}
			})
		})
	}
}

// TestChaosRandomSchedules fires seeded random multi-point schedules at
// every problem: whatever combination of faults lands, the property is
// the same — a bitwise identical completion or a descriptive error.
func TestChaosRandomSchedules(t *testing.T) {
	points := faults.Points()
	kinds := []faults.Kind{faults.KindError, faults.KindDelay, faults.KindShortWrite, faults.KindPanic}
	for pi, p := range workload.SmallSuite() {
		p, pi := p, pi
		t.Run(p.Name, func(t *testing.T) {
			a := p.Matrix()
			if !a.HasValues() {
				if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
					t.Fatal(err)
				}
			}
			clean := runChaos(t, a, nil, context.Background())
			if clean.err != nil {
				t.Fatalf("clean run failed: %v", clean.err)
			}
			rng := rand.New(rand.NewSource(int64(1000 + pi)))
			for round := 0; round < 3; round++ {
				rules := make([]faults.Rule, 1+rng.Intn(3))
				for i := range rules {
					rules[i] = faults.Rule{
						Point: points[rng.Intn(len(points))],
						Kind:  kinds[rng.Intn(len(kinds))],
						Nth:   int64(1 + rng.Intn(8)),
						Count: int64(rng.Intn(4)), // 0 means once
						Delay: time.Duration(rng.Intn(500)) * time.Microsecond,
					}
				}
				r := runChaos(t, a, faults.New(rules...), context.Background())
				if r.err == nil {
					assertBitwise(t, clean.x, r.x)
					continue
				}
				if msg := r.err.Error(); len(msg) < 10 {
					t.Fatalf("round %d (rules %+v): error %q is not descriptive", round, rules, msg)
				}
			}
		})
	}
}

// TestUnarmedRunUnchanged extends the TestUntracedRunUnchanged pattern
// to the fault layer: a nil injector plus a Background context must
// leave the run exactly as a build that never heard of fault tolerance —
// the robustness plane costs nothing when unarmed. At one worker the
// executor replays the sequential schedule, so every stat must match; at
// more, which worker claimed which task varies from run to run (two
// plain runs differ too), so only the schedule-invariant stats are
// compared (see parmf.Stats). The factors and solutions must match bit
// for bit at every worker count.
func TestUnarmedRunUnchanged(t *testing.T) {
	a := sparse.Grid3D(8, 8, 8)
	an, err := core.Analyze(a, core.DefaultConfig(order.AMF, 2))
	if err != nil {
		t.Fatal(err)
	}
	compared := func(s parmf.Stats) parmf.Stats {
		if s.Workers > 1 {
			return s.Invariant()
		}
		return s
	}
	for _, workers := range []int{1, 2} {
		plain, err := an.FactorizeParallel(parmf.DefaultConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		ctxRun, err := an.FactorizeParallelCtx(context.Background(), parmf.DefaultConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(compared(plain.Stats), compared(ctxRun.Stats)) {
			t.Errorf("%d workers: Background-context run changed stats:\n%+v\nvs\n%+v",
				workers, plain.Stats, ctxRun.Stats)
		}
		for ni := 0; ni < an.Tree.Len(); ni++ {
			na, nb := plain.Front().Node(ni), ctxRun.Front().Node(ni)
			for q, v := range na.L.A {
				if v != nb.L.A[q] {
					t.Fatalf("%d workers: node %d: L entry %d differs bitwise", workers, ni, q)
				}
			}
		}
	}

	// OOC path: nil injector == armed-but-never-firing injector (the
	// schedule targets hit numbers a tiny run never reaches). The resident
	// peak depends on when the spill writer catches up even at one worker,
	// so the out-of-core runs compare the invariant stats throughout.
	for _, workers := range []int{1, 4} {
		ref := runChaosOn(t, a, workers, nil, context.Background())
		if ref.err != nil {
			t.Fatal(ref.err)
		}
		idle := runChaosOn(t, a, workers, faults.New(
			faults.Rule{Point: faults.SpillWrite, Kind: faults.KindError, Nth: 1 << 40},
		), context.Background())
		if idle.err != nil {
			t.Fatal(idle.err)
		}
		assertBitwise(t, ref.x, idle.x)
		if !reflect.DeepEqual(ref.stats.Invariant(), idle.stats.Invariant()) {
			t.Errorf("%d workers: idle injector changed stats:\n%+v\nvs\n%+v", workers, ref.stats, idle.stats)
		}
	}
}
