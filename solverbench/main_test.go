package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the self-test checks against.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// runSmall runs one reduced-scale run of a workload for a single
// operation and returns its result and header lines.
func runSmall(t *testing.T, workload string, trace int) (result, string) {
	t.Helper()
	if err := environment(workloads[0]).validate(); err != nil {
		t.Skipf("host refused: %v", err)
	}
	var out bytes.Buffer
	res, err := run(options{workload: workload, seed: 3, seconds: 1e-9, trace: trace,
		small: true, dir: t.TempDir()}, &out)
	if err != nil {
		t.Fatalf("%s --trace %d: %v", workload, trace, err)
	}
	return res, out.String()
}

func headerLine(t *testing.T, out, key string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, key+" "); ok {
			return rest
		}
	}
	t.Fatalf("no %q line in output:\n%s", key, out)
	return ""
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json once
// untraced and once traced, and checks that each declared metric comes
// out with its declared unit, that every operation passed the
// correctness gate, and that both runs agree on the deterministic
// analysis counts.
func TestEveryMetricEmitted(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	hasOverhead := false
	for _, m := range c.PerLayer {
		hasOverhead = hasOverhead || m.Name == "trace.overhead"
	}
	if !hasOverhead {
		t.Error("BENCHMARK.json per_layer lacks trace.overhead")
	}
	for _, w := range c.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var counts [2]string
			for trace, want := range [][]contractMetric{c.EndToEnd, c.PerLayer} {
				res, out := runSmall(t, w.Name, trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("--trace %d: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("--trace %d: %d metrics, BENCHMARK.json declares %d", trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("--trace %d: metric %s = %+v (present %v), want unit %q", trace, m.Name, got, ok, m.Unit)
					}
				}
				headerLine(t, out, "env")
				counts[trace] = headerLine(t, out, "counts")
			}
			if counts[0] != counts[1] {
				t.Errorf("analysis counts differ: untraced %q, traced %q", counts[0], counts[1])
			}
		})
	}
}

// TestPerturbedSolutionFails shows that a wrong solution is counted as a
// failed operation rather than measured.
func TestPerturbedSolutionFails(t *testing.T) {
	w, err := workloadByName("mesh-nd")
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.gen(rand.New(rand.NewSource(3)), true)
	if err != nil {
		t.Fatal(err)
	}
	r := &runner{w: w, a: a, seed: 3, spillDir: t.TempDir(),
		perturb: func(x []float64) { x[len(x)/2] += 1e-3 }}
	res := measure(r, 1, &bytes.Buffer{})
	if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
		t.Fatalf("perturbed run: correct=%v attempted=%d failed=%d, want every operation failed",
			res.Correct, res.Attempted, res.Failed)
	}
}

// TestRefusesOversubscription checks that a host which cannot give each
// of the benchmark's workers a core is refused.
func TestRefusesOversubscription(t *testing.T) {
	e := env{NProc: 1, GOMAXPROCS: 1, Workers: workers}
	if e.validate() == nil {
		t.Errorf("%d workers on nproc=1 accepted", workers)
	}
	e = env{NProc: 2, GOMAXPROCS: 1, Workers: workers}
	if e.validate() == nil {
		t.Errorf("%d workers at GOMAXPROCS=1 accepted", workers)
	}
	e = env{NProc: 2, GOMAXPROCS: 2, Workers: workers}
	if err := e.validate(); err != nil {
		t.Error(err)
	}
}
