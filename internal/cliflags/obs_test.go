package cliflags

import (
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
	"repro/internal/memory"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestObservabilityFlagsAccepted pins the observability flags onto the
// common set: cmd/parfactor registers through Common.Register, so
// accepting them here is accepting them there.
func TestObservabilityFlagsAccepted(t *testing.T) {
	dir := t.TempDir()
	c, err := parse(t, "-matrix", "PRE2",
		"-trace", filepath.Join(dir, "run.trace.json"),
		"-metrics", filepath.Join(dir, "metrics.prom"),
		"-pprof", filepath.Join(dir, "prof"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Trace == "" || c.Metrics == "" || c.Pprof == "" {
		t.Fatalf("flags not captured: %+v", c)
	}
}

func TestObservabilityFlagsOptional(t *testing.T) {
	c, err := parse(t, "-matrix", "PRE2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Trace != "" || c.Metrics != "" || c.Pprof != "" {
		t.Fatalf("unset observability flags should stay empty: %+v", c)
	}
	o, err := c.Observability()
	if err != nil {
		t.Fatal(err)
	}
	if o.Tracer != nil {
		t.Fatal("tracer created without -trace/-metrics")
	}
	if err := o.Finish(memory.ExecStats{}); err != nil {
		t.Fatalf("Finish on disabled observability: %v", err)
	}
}

// TestObservabilityPathValidation pins the rejection cases: outputs that
// collide with each other (including the profile paths -pprof derives
// from its prefix) and paths that are existing directories.
func TestObservabilityPathValidation(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name string
		args []string
	}{
		{"trace=metrics", []string{"-trace", "out.json", "-metrics", "out.json"}},
		{"trace is dir", []string{"-trace", dir}},
		{"metrics is dir", []string{"-metrics", dir}},
		{"pprof prefix is dir", []string{"-pprof", dir}},
		{"pprof collides with trace", []string{"-trace", "p.cpu.pprof", "-pprof", "p"}},
		{"pprof collides with metrics", []string{"-metrics", "p.heap.pprof", "-pprof", "p"}},
	}
	for _, tc := range cases {
		args := append([]string{"-matrix", "PRE2"}, tc.args...)
		if _, err := parse(t, args...); err == nil {
			t.Errorf("%s: args %v accepted", tc.name, tc.args)
		}
	}
	// Distinct paths pass.
	if _, err := parse(t, "-matrix", "PRE2",
		"-trace", "a.json", "-metrics", "b.prom", "-pprof", "c"); err != nil {
		t.Errorf("distinct outputs rejected: %v", err)
	}
}

// TestObservabilityLifecycle runs the full Obs lifecycle with every
// output enabled and checks the files appear with plausible content.
func TestObservabilityLifecycle(t *testing.T) {
	dir := t.TempDir()
	c, err := parse(t, "-matrix", "PRE2", "-workers", "2",
		"-trace", filepath.Join(dir, "run.trace.json"),
		"-metrics", filepath.Join(dir, "metrics.json"),
		"-pprof", filepath.Join(dir, "prof"))
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.Observability()
	if err != nil {
		t.Fatal(err)
	}
	if o.Tracer == nil {
		t.Fatal("no tracer despite -trace")
	}
	o.Tracer.Begin(0, "task", 1)
	o.Tracer.End(0, "task", 1)
	if err := o.Finish(memory.ExecStats{Fronts: 1}); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	for _, f := range []string{"run.trace.json", "metrics.json", "prof.cpu.pprof", "prof.heap.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("missing output %s: %v", f, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("output %s is empty", f)
		}
	}
}

// TestListenValidation pins the -listen / -listen-linger rejection
// cases next to the path validation above.
func TestListenValidation(t *testing.T) {
	bad := [][]string{
		{"-listen", "no-port"},
		{"-listen", "127.0.0.1:0:0"},
		{"-listen-linger", "5s"},                            // linger without listen
		{"-listen", "127.0.0.1:0", "-listen-linger", "-1s"}, // negative linger
	}
	for _, args := range bad {
		if _, err := parse(t, append([]string{"-matrix", "PRE2"}, args...)...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if _, err := parse(t, "-matrix", "PRE2", "-listen", "127.0.0.1:0", "-listen-linger", "2s"); err != nil {
		t.Errorf("valid -listen rejected: %v", err)
	}
	if _, err := parse(t, "-matrix", "PRE2", "-listen", ":9090"); err != nil {
		t.Errorf("-listen :port rejected: %v", err)
	}
}

// TestListenLifecycle starts the live plane via the flag path, checks
// the server answers while the run is "executing", and that Finish
// completes the registered run and shuts the server down.
func TestListenLifecycle(t *testing.T) {
	c, err := parse(t, "-matrix", "PRE2", "-workers", "2", "-listen", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.Observability()
	if err != nil {
		t.Fatal(err)
	}
	if o.Tracer == nil {
		t.Fatal("-listen alone must create a tracer")
	}
	if o.Server == nil || o.Run == nil {
		t.Fatal("-listen did not start the live plane")
	}
	if o.Run.Name() != "PRE2" {
		t.Fatalf("run name = %q, want PRE2", o.Run.Name())
	}
	url := o.Server.URL()
	if code := httpStatus(t, url+"/healthz"); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	if code := httpStatus(t, url+"/metrics"); code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if got := o.Run.Status(); got != obs.StatusRunning {
		t.Fatalf("run status = %s, want running", got)
	}
	if err := o.Finish(memory.ExecStats{Fronts: 3}); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := o.Run.Status(); got != obs.StatusDone {
		t.Fatalf("run status after Finish = %s, want done", got)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still answering after Finish")
	}
}

// TestAbortLifecycle pins the failure path the CLI's fatal handler
// take: Abort flips the registered run to StatusFailed (not Done), the
// server shuts down, and the metrics output — including the injected
// fault counters — is still written for post-mortem.
func TestAbortLifecycle(t *testing.T) {
	dir := t.TempDir()
	c, err := parse(t, "-matrix", "PRE2", "-listen", "127.0.0.1:0",
		"-metrics", filepath.Join(dir, "metrics.prom"),
		"-faults", "task:error")
	if err != nil {
		t.Fatal(err)
	}
	o, err := c.Observability()
	if err != nil {
		t.Fatal(err)
	}
	in, err := c.Injector()
	if err != nil {
		t.Fatal(err)
	}
	o.SetFaults(in)
	in.Check(faults.Task, 0) // fire the scheduled fault once
	if err := o.Abort(errors.New("injected failure"), memory.ExecStats{CancelledTasks: 4}); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if got := o.Run.Status(); got != obs.StatusFailed {
		t.Fatalf("run status after Abort = %s, want failed", got)
	}
	body, err := os.ReadFile(filepath.Join(dir, "metrics.prom"))
	if err != nil {
		t.Fatalf("metrics output missing after Abort: %v", err)
	}
	if err := trace.LintPrometheus(body); err != nil {
		t.Fatalf("aborted-run metrics body: %v", err)
	}
	if v, ok := trace.PromValue(body, "mf_cancelled_tasks_total"); !ok || v != 4 {
		t.Fatalf("mf_cancelled_tasks_total = %v, %v; want 4", v, ok)
	}
	if v, ok := trace.PromValue(body, `mf_faults_injected_total{point="task"}`); !ok || v != 1 {
		t.Fatalf("mf_faults_injected_total = %v, %v; want 1", v, ok)
	}
}

func httpStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
