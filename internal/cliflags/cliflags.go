// Package cliflags holds the flag set, validation, input loading and
// observability lifecycle of the factorization CLI (cmd/parfactor):
// problem selection, ordering, worker count, the within-front split knobs,
// the kernel-family switch and the -trace/-metrics/-listen outputs. The
// command registers the common set once and adds its own specific flags
// next to it.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/faults"
	"repro/internal/order"
	"repro/internal/parmf"
	"repro/internal/sparse"
	"repro/internal/workload"
)

// Common is the factorization CLI's common flag set.
type Common struct {
	Matrix     string
	MM         string
	Ordering   string
	Workers    int
	Split      int64
	FrontSplit int
	BlockRows  int
	RootGrid   int
	Slaves     string
	Kernel     string
	Small      bool
	NRHS       int

	// Observability outputs (see Observability): empty = disabled.
	Trace   string // Chrome trace_event JSON path
	Metrics string // counters snapshot path (.json = JSON, else Prometheus text)
	Pprof   string // runtime profile path prefix (<prefix>.cpu.pprof, <prefix>.heap.pprof)

	// Listen, when non-empty, serves the live observability plane
	// (internal/obs: /metrics, /progress, /runs, pprof, trace dumps) on
	// this host:port while the run executes. ListenLinger keeps the
	// server up that long after the run finishes, so short runs can still
	// be scraped (CI does exactly this).
	Listen       string
	ListenLinger time.Duration

	// Timeout, when positive, bounds the whole run (analysis +
	// factorization + solve) with a context deadline: the executors drain
	// deterministically at the next front boundary and the CLI exits
	// nonzero with a descriptive error. 0 = no deadline.
	Timeout time.Duration
	// Faults is a fault-injection schedule (internal/faults.Parse
	// grammar: "point:kind[:nth[:count]]", comma-separated) armed on the
	// run for chaos testing. Empty = disabled.
	Faults string
}

// Register declares the common flags on fs (use flag.CommandLine for the
// process flag set).
func (c *Common) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Matrix, "matrix", "", "suite problem name (see experiments -table 1)")
	fs.StringVar(&c.MM, "mm", "", "MatrixMarket file to read instead of a suite problem")
	fs.StringVar(&c.Ordering, "ordering", "METIS", "fill-reducing ordering: METIS|PORD|AMD|AMF|RCM|NATURAL")
	fs.IntVar(&c.Workers, "workers", 8, "worker goroutine count")
	fs.Int64Var(&c.Split, "split", 0, "split masters larger than this many entries (0 = off)")
	fs.IntVar(&c.FrontSplit, "front-split", 128, "factor fronts at least this large via within-front master/slave tasks")
	fs.IntVar(&c.BlockRows, "block-rows", dense.DefaultBlockRows, "panel width / tile edge of the blocked kernels and within-front partitions")
	fs.IntVar(&c.RootGrid, "root-grid", 0, "2D (type-3) root-front worker grid rows: 0 = auto (floor(sqrt(workers))), -1 = 1D roots, N > 0 = N grid rows")
	fs.StringVar(&c.Slaves, "slaves", "memory", "slave selection for split fronts: memory (Algorithm 1) or workload")
	fs.StringVar(&c.Kernel, "kernel", "", "dense kernel family: default|fast|simd|auto (auto picks simd when AVX2/FMA is available, fast otherwise)")
	fs.BoolVar(&c.Small, "small", false, "use the reduced (test-scale) suite")
	fs.IntVar(&c.NRHS, "nrhs", 1, "number of right-hand sides solved as one blocked multi-RHS pass")
	fs.StringVar(&c.Trace, "trace", "", "write Chrome trace_event JSON of the run to this file (chrome://tracing / Perfetto)")
	fs.StringVar(&c.Metrics, "metrics", "", "write the aggregated counters snapshot to this file (.json = JSON, otherwise Prometheus text format)")
	fs.StringVar(&c.Pprof, "pprof", "", "capture runtime profiles to <prefix>.cpu.pprof and <prefix>.heap.pprof")
	fs.StringVar(&c.Listen, "listen", "", "serve live observability HTTP (/metrics, /progress, /runs, /debug/pprof) on this host:port during the run")
	fs.DurationVar(&c.ListenLinger, "listen-linger", 0, "keep the -listen server up this long after the run completes (lets scrapers catch short runs)")
	fs.DurationVar(&c.Timeout, "timeout", 0, "abort the run after this long (0 = no deadline); the executors drain cleanly and the tool exits nonzero")
	fs.StringVar(&c.Faults, "faults", "", "deterministic fault-injection schedule, e.g. 'spill-write:error:2:3,task:delay' (chaos testing; see internal/faults)")
}

// Validate checks the numeric ranges of the common flags.
func (c *Common) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("-workers must be >= 1 (got %d)", c.Workers)
	}
	if c.FrontSplit < 1 {
		return fmt.Errorf("-front-split must be >= 1 (got %d)", c.FrontSplit)
	}
	if c.BlockRows < 1 {
		return fmt.Errorf("-block-rows must be >= 1 (got %d)", c.BlockRows)
	}
	if c.NRHS < 1 {
		return fmt.Errorf("-nrhs must be >= 1 (got %d)", c.NRHS)
	}
	if c.RootGrid < -1 {
		return fmt.Errorf("-root-grid must be -1 (disable), 0 (auto) or positive grid rows (got %d)", c.RootGrid)
	}
	if c.RootGrid > c.Workers {
		return fmt.Errorf("-root-grid %d exceeds -workers %d (grid rows cannot outnumber workers)", c.RootGrid, c.Workers)
	}
	if _, err := c.Method(); err != nil {
		return err
	}
	if _, err := c.SlavePolicy(); err != nil {
		return err
	}
	if _, err := c.KernelFamily(); err != nil {
		return err
	}
	if c.Matrix == "" && c.MM == "" {
		return fmt.Errorf("need -matrix NAME or -mm FILE")
	}
	if err := c.validateOutputs(); err != nil {
		return err
	}
	if c.Listen != "" {
		if _, _, err := net.SplitHostPort(c.Listen); err != nil {
			return fmt.Errorf("-listen %q is not host:port: %v", c.Listen, err)
		}
	}
	if c.ListenLinger < 0 {
		return fmt.Errorf("-listen-linger must be >= 0 (got %v)", c.ListenLinger)
	}
	if c.ListenLinger > 0 && c.Listen == "" {
		return fmt.Errorf("-listen-linger needs -listen")
	}
	if c.Timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0 (got %v)", c.Timeout)
	}
	if _, err := c.Injector(); err != nil {
		return fmt.Errorf("-faults: %v", err)
	}
	return nil
}

// Context returns the run context -timeout asks for: a deadline-bound
// context when the flag is positive, plain Background otherwise. The
// caller must invoke cancel on every path (it is never nil).
func (c *Common) Context() (context.Context, context.CancelFunc) {
	if c.Timeout > 0 {
		return context.WithTimeout(context.Background(), c.Timeout)
	}
	return context.WithCancel(context.Background())
}

// Injector parses -faults into an armed injector (nil when the flag is
// empty — the executors then skip all fault checks at zero cost).
func (c *Common) Injector() (*faults.Injector, error) {
	return faults.Parse(c.Faults)
}

// validateOutputs checks the observability paths: each must be a usable
// file path (not an existing directory) and the outputs must not collide
// with each other (-pprof is a prefix, so it collides when a derived
// profile path equals another output).
func (c *Common) validateOutputs() error {
	outs := map[string]string{}
	add := func(flagName, path string) error {
		if path == "" {
			return nil
		}
		if fi, err := os.Stat(path); err == nil && fi.IsDir() {
			return fmt.Errorf("%s %q is a directory", flagName, path)
		}
		if prev, ok := outs[path]; ok {
			return fmt.Errorf("%s %q collides with %s", flagName, path, prev)
		}
		outs[path] = flagName
		return nil
	}
	if err := add("-trace", c.Trace); err != nil {
		return err
	}
	if err := add("-metrics", c.Metrics); err != nil {
		return err
	}
	if c.Pprof != "" {
		if fi, err := os.Stat(c.Pprof); err == nil && fi.IsDir() {
			return fmt.Errorf("-pprof prefix %q is a directory", c.Pprof)
		}
		for _, p := range []string{c.Pprof + ".cpu.pprof", c.Pprof + ".heap.pprof"} {
			if err := add("-pprof", p); err != nil {
				return err
			}
		}
	}
	return nil
}

// Method parses -ordering.
func (c *Common) Method() (order.Method, error) {
	switch strings.ToUpper(c.Ordering) {
	case "METIS", "ND":
		return order.ND, nil
	case "PORD":
		return order.PORD, nil
	case "AMD":
		return order.AMD, nil
	case "AMF":
		return order.AMF, nil
	case "RCM":
		return order.RCM, nil
	case "NATURAL":
		return order.Natural, nil
	}
	return 0, fmt.Errorf("unknown ordering %q", c.Ordering)
}

// KernelFamily resolves -kernel (default|fast|simd|auto; empty = the
// default family). The returned Kernel may be dense.KernelAuto — the
// executor resolves it to the concrete family and reports that in its
// stats.
func (c *Common) KernelFamily() (dense.Kernel, error) {
	k, err := dense.ParseKernel(c.Kernel)
	if err != nil {
		return dense.KernelDefault, fmt.Errorf("-kernel: %v", err)
	}
	return k, nil
}

// SlavePolicy parses -slaves.
func (c *Common) SlavePolicy() (parmf.SlavePolicy, error) {
	switch strings.ToLower(c.Slaves) {
	case "memory":
		return parmf.SlavesMemory, nil
	case "workload":
		return parmf.SlavesWorkload, nil
	}
	return 0, fmt.Errorf("unknown slave policy %q", c.Slaves)
}

// Load reads the selected matrix (-mm file or suite problem) and fills
// pattern-only problems with deterministic diagonally dominant values.
func (c *Common) Load() (*sparse.CSC, error) {
	var a *sparse.CSC
	switch {
	case c.MM != "":
		f, err := os.Open(c.MM)
		if err != nil {
			return nil, err
		}
		a, err = sparse.ReadMatrixMarket(f)
		f.Close()
		if err != nil {
			return nil, err
		}
	case c.Matrix != "":
		suite := workload.Suite()
		if c.Small {
			suite = workload.SmallSuite()
		}
		p, err := workload.ByName(suite, c.Matrix)
		if err != nil {
			return nil, err
		}
		a = p.Matrix()
	default:
		return nil, fmt.Errorf("need -matrix NAME or -mm FILE")
	}
	if !a.HasValues() {
		if err := sparse.FillDominant(a, rand.New(rand.NewSource(7))); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// CoreConfig builds the analysis configuration the common flags describe.
func (c *Common) CoreConfig() (core.Config, error) {
	m, err := c.Method()
	if err != nil {
		return core.Config{}, err
	}
	kern, err := c.KernelFamily()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig(m, c.Workers)
	cfg.SplitThreshold = c.Split
	cfg.FrontSplit = c.FrontSplit
	cfg.BlockRows = c.BlockRows
	cfg.RootGrid = c.RootGrid
	cfg.Kernel = kern
	return cfg, nil
}
