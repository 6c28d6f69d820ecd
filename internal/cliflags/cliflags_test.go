package cliflags

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/dense"
	"repro/internal/order"
	"repro/internal/parmf"
)

func parse(t *testing.T, args ...string) (*Common, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var c Common
	c.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return &c, c.Validate()
}

func TestDefaultsValidate(t *testing.T) {
	c, err := parse(t, "-matrix", "PRE2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Workers != 8 || c.BlockRows < 1 || c.Kernel != "" || c.NRHS != 1 {
		t.Fatalf("unexpected defaults %+v", c)
	}
	m, err := c.Method()
	if err != nil || m != order.ND {
		t.Fatalf("default ordering %v, %v", m, err)
	}
	sp, err := c.SlavePolicy()
	if err != nil || sp != parmf.SlavesMemory {
		t.Fatalf("default slaves %v, %v", sp, err)
	}
}

// TestTimeoutAndFaultsFlags pins the common robustness flags:
// negative -timeout and malformed -faults schedules are rejected at
// validation; valid ones produce a deadline-bound context and an armed
// injector.
func TestTimeoutAndFaultsFlags(t *testing.T) {
	if _, err := parse(t, "-matrix", "PRE2", "-timeout", "-1s"); err == nil {
		t.Error("negative -timeout accepted")
	}
	if _, err := parse(t, "-matrix", "PRE2", "-faults", "no-such-point:error"); err == nil {
		t.Error("unknown fault point accepted")
	}
	if _, err := parse(t, "-matrix", "PRE2", "-faults", "task:no-such-kind"); err == nil {
		t.Error("unknown fault kind accepted")
	}

	c, err := parse(t, "-matrix", "PRE2", "-timeout", "30s", "-faults", "spill-write:error:2:3,task:delay")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := c.Context()
	defer cancel()
	if _, ok := ctx.Deadline(); !ok {
		t.Error("-timeout did not set a context deadline")
	}
	in, err := c.Injector()
	if err != nil || in == nil {
		t.Fatalf("Injector() = %v, %v; want armed injector", in, err)
	}

	// No flags: Background-equivalent context, nil injector (zero cost).
	c, err = parse(t, "-matrix", "PRE2")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = c.Context()
	defer cancel()
	if _, ok := ctx.Deadline(); ok {
		t.Error("deadline set without -timeout")
	}
	if in, err := c.Injector(); err != nil || in != nil {
		t.Fatalf("Injector() without -faults = %v, %v; want nil, nil", in, err)
	}
}

func TestValidationRejects(t *testing.T) {
	cases := [][]string{
		{"-matrix", "PRE2", "-workers", "0"},
		{"-matrix", "PRE2", "-workers", "-2"},
		{"-matrix", "PRE2", "-front-split", "0"},
		{"-matrix", "PRE2", "-front-split", "-64"},
		{"-matrix", "PRE2", "-block-rows", "0"},
		{"-matrix", "PRE2", "-block-rows", "-3"},
		{"-matrix", "PRE2", "-nrhs", "0"},
		{"-matrix", "PRE2", "-nrhs", "-4"},
		{"-matrix", "PRE2", "-ordering", "BOGUS"},
		{"-matrix", "PRE2", "-ordering", ""},
		{"-matrix", "PRE2", "-slaves", "nobody"},
		{"-matrix", "PRE2", "-root-grid", "-2"},
		{"-matrix", "PRE2", "-root-grid", "9"},                  // > default 8 workers
		{"-matrix", "PRE2", "-workers", "2", "-root-grid", "3"}, // > explicit workers
		{}, // neither -matrix nor -mm
	}
	for _, args := range cases {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRootGridAccepts pins the accepted -root-grid range: -1 disables the
// 2D root path, 0 asks for the auto grid, and positive values up to the
// worker count select the grid row count — all flowing into core.Config.
func TestRootGridAccepts(t *testing.T) {
	for _, rg := range []string{"-1", "0", "1", "4"} {
		c, err := parse(t, "-matrix", "PRE2", "-root-grid", rg)
		if err != nil {
			t.Fatalf("-root-grid %s rejected: %v", rg, err)
		}
		cfg, err := c.CoreConfig()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.RootGrid != c.RootGrid {
			t.Fatalf("-root-grid %s: core config got %d", rg, cfg.RootGrid)
		}
	}
}

func TestLoadSuiteProblem(t *testing.T) {
	c, err := parse(t, "-matrix", "GUPTA3", "-small", "-kernel", "fast")
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Load()
	if err != nil {
		t.Fatal(err)
	}
	if a.N == 0 || !a.HasValues() {
		t.Fatalf("loaded matrix n=%d values=%v (GUPTA3 must be filled)", a.N, a.HasValues())
	}
	cfg, err := c.CoreConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kernel != dense.KernelFast || cfg.FrontSplit != 128 {
		t.Fatalf("core config %+v", cfg)
	}
}

// TestKernelFlagGrammar pins the -kernel grammar.
func TestKernelFlagGrammar(t *testing.T) {
	accept := []struct {
		args []string
		want dense.Kernel
	}{
		{[]string{"-matrix", "PRE2"}, dense.KernelDefault},
		{[]string{"-matrix", "PRE2", "-kernel", "default"}, dense.KernelDefault},
		{[]string{"-matrix", "PRE2", "-kernel", "fast"}, dense.KernelFast},
		{[]string{"-matrix", "PRE2", "-kernel", "FAST"}, dense.KernelFast},
		{[]string{"-matrix", "PRE2", "-kernel", "simd"}, dense.KernelSIMD},
		{[]string{"-matrix", "PRE2", "-kernel", "auto"}, dense.KernelAuto},
	}
	for _, c := range accept {
		fl, err := parse(t, c.args...)
		if err != nil {
			t.Fatalf("args %v rejected: %v", c.args, err)
		}
		k, err := fl.KernelFamily()
		if err != nil || k != c.want {
			t.Fatalf("args %v: KernelFamily() = %v, %v; want %v", c.args, k, err, c.want)
		}
		cfg, err := fl.CoreConfig()
		if err != nil || cfg.Kernel != c.want {
			t.Fatalf("args %v: core config kernel %v, %v; want %v", c.args, cfg.Kernel, err, c.want)
		}
	}

	reject := [][]string{
		{"-matrix", "PRE2", "-kernel", "turbo"},
		{"-matrix", "PRE2", "-kernel", "fastest"},
	}
	for _, args := range reject {
		if _, err := parse(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	if _, err := parse(t, "-matrix", "PRE2", "-kernel", "turbo"); err == nil ||
		!strings.Contains(err.Error(), "unknown kernel family") {
		t.Errorf("bad -kernel error not descriptive: %v", err)
	}
}

func TestLoadUnknown(t *testing.T) {
	c, err := parse(t, "-matrix", "NO_SUCH_PROBLEM")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(); err == nil || !strings.Contains(err.Error(), "NO_SUCH_PROBLEM") {
		t.Fatalf("unknown problem error %v", err)
	}
}
