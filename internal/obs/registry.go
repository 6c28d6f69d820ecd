// Package obs is the live observability plane: an embeddable HTTP
// server exposing Prometheus metrics, progress/ETA, Chrome traces,
// memory timelines and pprof for factorizations while they run, plus a
// registry that lets one server watch several concurrent runs.
//
// The CLI wires it behind the -listen flag (internal/cliflags); a
// library embedder creates a Server, Registers a Run per factorization,
// hands the run's tracer to the executor, and Completes the run with
// the final ExecStats:
//
//	srv, _ := obs.NewServer("127.0.0.1:9090", nil)
//	defer srv.Close()
//	cfg.Tracer = trace.New(workers) // cfg is the core.Config
//	an, _ := core.Analyze(a, cfg)
//	run, _ := srv.Registry().Register("GUPTA3", cfg.Tracer)
//	f, st, _ := an.FactorizeParallelOOC(parmf.DefaultConfig(workers))
//	run.SetSpill(st.Stats)
//	run.Complete(f.Stats.ExecStats)
//
// Everything is stdlib-only (net/http, net/http/pprof).
package obs

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/ooc"
	"repro/internal/trace"
)

// Status is a run's lifecycle state in the registry.
type Status string

const (
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Run is one registered factorization: its tracer, its incremental
// collector (every /metrics scrape folds only new events), and — once
// Complete or Fail is called — its authoritative outcome.
type Run struct {
	id      string
	name    string
	started time.Time
	tracer  *trace.Tracer
	col     *trace.Collector

	mu       sync.Mutex
	status   Status
	stats    memory.ExecStats
	errMsg   string
	spill    func() ooc.Stats
	faults   *faults.Injector
	finished time.Time
}

// ID returns the registry-assigned identifier ("run-1", "run-2", ...).
func (r *Run) ID() string { return r.id }

// Name returns the label given at registration (matrix name, usually).
func (r *Run) Name() string { return r.name }

// Tracer returns the run's tracer (nil for an untraced registration).
func (r *Run) Tracer() *trace.Tracer { return r.tracer }

// Status returns the run's current lifecycle state.
func (r *Run) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.status
}

// SetSpill attaches a live OOC store stats source (ooc.FileStore.Stats
// is mutex-guarded and mid-run safe); /progress reports it per run.
func (r *Run) SetSpill(fn func() ooc.Stats) {
	r.mu.Lock()
	r.spill = fn
	r.mu.Unlock()
}

// SetFaults attaches the run's fault injector (chaos runs): every
// Snapshot — live scrapes and the post-mortem one — carries the fired
// counters per injection point, so /metrics exports
// mf_faults_injected_total. nil detaches.
func (r *Run) SetFaults(in *faults.Injector) {
	r.mu.Lock()
	r.faults = in
	r.mu.Unlock()
}

// Complete marks the run done and stores the executor's authoritative
// ExecStats: from here on Snapshot returns the post-mortem aggregation
// with these stats (so the final /metrics scrape's mf_resident_peak is
// ExecStats.ResidentPeak itself, not the live mirror).
func (r *Run) Complete(stats memory.ExecStats) {
	r.mu.Lock()
	r.status = StatusDone
	r.stats = stats
	r.finished = time.Now()
	r.mu.Unlock()
}

// Fail marks the run failed, keeping it visible in the registry with
// the error until retired.
func (r *Run) Fail(err error) {
	r.mu.Lock()
	r.status = StatusFailed
	if err != nil {
		r.errMsg = err.Error()
	}
	r.finished = time.Now()
	r.mu.Unlock()
}

// Snapshot returns the run's current aggregated view: a live scrape
// (synthesized partial stats, wall time extended to now) while running,
// the final post-mortem snapshot once completed.
func (r *Run) Snapshot() trace.Snapshot {
	r.mu.Lock()
	st, stats, in := r.status, r.stats, r.faults
	r.mu.Unlock()
	var s trace.Snapshot
	if st == StatusRunning {
		s = r.col.Scrape()
	} else {
		s = r.col.Final(stats)
	}
	if in != nil {
		for _, fs := range in.Stats() {
			if fs.Fired > 0 {
				s.Faults = append(s.Faults, trace.FaultStat{Point: string(fs.Point), Count: fs.Fired})
			}
		}
	}
	return s
}

// Progress reads the run's progress ledger (zero value if untraced).
func (r *Run) Progress() trace.ProgressSnapshot { return r.tracer.Progress() }

// Elapsed is the wall time from registration to completion (or to now
// while still running).
func (r *Run) Elapsed() time.Duration {
	r.mu.Lock()
	fin := r.finished
	r.mu.Unlock()
	if fin.IsZero() {
		fin = time.Now()
	}
	return fin.Sub(r.started)
}

// spillStats returns the live OOC store counters and whether a source
// is attached.
func (r *Run) spillStats() (ooc.Stats, bool) {
	r.mu.Lock()
	fn := r.spill
	r.mu.Unlock()
	if fn == nil {
		return ooc.Stats{}, false
	}
	return fn(), true
}

// Registry tracks the factorizations a server is watching. Multiple
// concurrent runs each get a distinct ID; retired runs disappear from
// every endpoint. All methods are safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	seq   int
	total int64
	runs  map[string]*Run
	order []string // registration order; Latest is the last entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{runs: map[string]*Run{}}
}

// Register adds a run for the given tracer under a fresh ID. The tracer
// may be nil (the run still shows up in /runs and /progress, with no
// trace-derived metrics).
func (g *Registry) Register(name string, tr *trace.Tracer) (*Run, error) {
	if g == nil {
		return nil, errors.New("obs: nil registry")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	g.total++
	r := &Run{
		id:      "run-" + strconv.Itoa(g.seq),
		name:    name,
		started: time.Now(),
		tracer:  tr,
		col:     trace.NewCollector(tr),
		status:  StatusRunning,
	}
	g.runs[r.id] = r
	g.order = append(g.order, r.id)
	return r, nil
}

// Get returns the run with that ID, or nil.
func (g *Registry) Get(id string) *Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.runs[id]
}

// Latest returns the most recently registered run still in the
// registry, or nil when empty — the default run /metrics serves.
func (g *Registry) Latest() *Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := len(g.order) - 1; i >= 0; i-- {
		if r := g.runs[g.order[i]]; r != nil {
			return r
		}
	}
	return nil
}

// List returns the registered runs in registration order.
func (g *Registry) List() []*Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*Run, 0, len(g.runs))
	for _, id := range g.order {
		if r := g.runs[id]; r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Retire removes a run from the registry (its ID stops resolving).
// Reports whether the ID was present.
func (g *Registry) Retire(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.runs[id]; !ok {
		return false
	}
	delete(g.runs, id)
	for i, v := range g.order {
		if v == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	return true
}

// Counts returns the active (registered right now) and lifetime-total
// run counts — the registry gauges /metrics always exports.
func (g *Registry) Counts() (active int, total int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.runs), g.total
}
