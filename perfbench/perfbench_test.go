package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"gbcr/internal/cr"
	"gbcr/internal/harness"
	"gbcr/internal/sim"
)

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"gbcr/internal/sim.(*Kernel).Run"}, "sim"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "gbcr/internal/workload/hpl.Timed.Launch.func1"}, "workload"},
		{[]string{"gbcr/internal/cr/protocol.Uncoordinated.RestartLine", "gbcr/internal/harness.RunScenario"}, "cr"},
		{[]string{"gbcr/internal/storage/tier.(*Hierarchy).Write"}, "storage"},
		{[]string{"gbcr/internal/workload/motif.(*Miner).step"}, "workload"},
		{[]string{"gbcr/internal/mpi.(*Env).Send", "gbcr/internal/workload.CommGroups.Launch.func1"}, "mpi"},
		// Innermost known frame wins; packages outside the layer list are
		// skipped on the way out.
		{[]string{"gbcr/internal/figures.secs", "gbcr/internal/harness.(*Runner).Measure"}, "harness"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"main.(*bench).rep", "runtime.main"}, "runtime"},
		{[]string{"gbcr/internal/simulator.x"}, "runtime"}, // not the sim package
		{nil, "runtime"},
	} {
		if got := layerOf(tc.frames); got != tc.want {
			t.Errorf("layerOf(%q) = %q, want %q", tc.frames, got, tc.want)
		}
	}
}

var sink [][]byte

// TestProfileByLayer decodes a real heap profile: every layer is present, the
// layers sum to the total, and the allocations made here (no gbcr/internal
// frame) land in runtime.
func TestProfileByLayer(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 64<<10))
	}
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	byLayer, total, err := profileByLayer(buf.Bytes(), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if len(byLayer) != len(layers) {
		t.Errorf("got %d layers, want %d", len(byLayer), len(layers))
	}
	sum := 0.0
	for _, v := range byLayer {
		sum += v
	}
	if sum != total {
		t.Errorf("layers sum to %v, total is %v", sum, total)
	}
	if byLayer["runtime"] < 64*64<<10 {
		t.Errorf("runtime layer holds %v bytes, want at least the %d allocated here", byLayer["runtime"], 64*64<<10)
	}
	if _, _, err := profileByLayer(buf.Bytes(), "no_such_type"); err == nil {
		t.Error("unknown sample type: want an error")
	}
	if _, _, err := profileByLayer([]byte{0x0a, 0xff}, "cpu"); err == nil {
		t.Error("truncated profile: want an error")
	}
}

func TestParseGolden(t *testing.T) {
	data, err := os.ReadFile("../internal/figures/testdata/fig5.golden")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := parseGolden(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 || len(tab.Cols) != 8 || tab.Rows[0] != "All(32)" || tab.Cols[7] != "400" {
		t.Fatalf("fig5 golden shape: rows %q cols %q", tab.Rows, tab.Cols)
	}
	if got := tab.Cells[3][0]; got != 10.600168849 {
		t.Errorf("Group(4) at 50 s = %v, want 10.600168849", got)
	}
	for name, bad := range map[string]string{
		"no JSON":      "Figure 5\nAll(32) 1 2\n",
		"broken JSON":  "table\n{\"rows\": [\n",
		"ragged row":   "t\n{\"rows\":[\"a\"],\"cols\":[\"1\",\"2\"],\"cells\":[[1]]}\n",
		"missing rows": "t\n{\"rows\":[\"a\",\"b\"],\"cols\":[\"1\"],\"cells\":[[1]]}\n",
	} {
		if _, err := parseGolden([]byte(bad)); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}

// TestFailFrac checks the accounting behind fail_frac: a cell fails once,
// whether its call errs or its output check does.
func TestFailFrac(t *testing.T) {
	p, err := genScale(refSeed, []float64{1, 2, 3, 4, 5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	rep := repResult{results: make([]harness.Result, 8), errs: make([]error, 8)}
	for i, c := range p.cells {
		rep.results[i] = fakeResult(c, p.expected[i])
	}
	rep.results[2] = fakeResult(p.cells[2], 3.5) // off the reference: check fails
	rep.errs[5] = errors.New("simulation failed")
	rep.results[7].Report = nil // also off the reference, but one failure
	var o outcome
	p.check(rep, &o)
	if o.attempted != 8 || o.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 8 and 3: %q", o.attempted, o.failed, o.msgs)
	}
	if got := o.failFrac(); got != 3.0/8 {
		t.Errorf("failFrac = %v, want 0.375", got)
	}
	if !strings.Contains(strings.Join(o.msgs, "\n"), "simulation failed") {
		t.Errorf("messages %q lack the call's error", o.msgs)
	}

	// All(N) must rise with N even off the reference seed.
	p.expected = nil
	rep = repResult{results: make([]harness.Result, 8), errs: make([]error, 8)}
	for i, c := range p.cells {
		rep.results[i] = fakeResult(c, 10)
	}
	o = outcome{}
	p.check(rep, &o)
	if o.failed != 3 {
		t.Errorf("flat All(N) delays: %d failures, want 3: %q", o.failed, o.msgs)
	}
	if (&outcome{}).failFrac() != 0 {
		t.Error("failFrac of nothing attempted should be 0")
	}
}

// fakeResult is a passing cell result with the given effective delay.
func fakeResult(c harness.Cell, delay float64) harness.Result {
	recs := make([]cr.CkptRecord, c.Config.N)
	for i := range recs {
		recs[i] = cr.CkptRecord{SafePointAt: c.IssuedAt, WriteStart: c.IssuedAt, WriteEnd: c.IssuedAt + 1, ResumeAt: c.IssuedAt + 2}
	}
	base := 100 * sim.Second
	return harness.Result{
		Baseline: base, WithCkpt: base + sim.Seconds(delay), IssuedAt: c.IssuedAt,
		Report: &cr.CycleReport{Records: recs},
	}
}

// TestGenerate pins the input generation: the reference seed reproduces the
// paper's issuance times, other seeds stay in range, and a seed always gives
// the same inputs.
func TestGenerate(t *testing.T) {
	golden := &table{Cells: make([][]float64, 6)}
	for i := range golden.Cells {
		golden.Cells[i] = make([]float64, 8)
	}
	ref, err := genPaperHPL(refSeed, golden)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.cells) != 48 {
		t.Fatalf("paper_hpl has %d cells, want 48", len(ref.cells))
	}
	for i, c := range ref.cells[:8] {
		if want := sim.Time(50*(i+1)) * sim.Second; c.IssuedAt != want {
			t.Errorf("reference cell %d issued at %v, want %v", i, c.IssuedAt, want)
		}
	}
	if _, err := genPaperHPL(refSeed, nil); err == nil {
		t.Error("reference seed without the golden table: want an error")
	}
	for seed := int64(2); seed < 40; seed++ {
		a, err := genPaperHPL(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := genPaperHPL(seed, nil)
		for i, c := range a.cells {
			if c.IssuedAt < 50*sim.Second || c.IssuedAt > 400*sim.Second || c.IssuedAt != b.cells[i].IssuedAt {
				t.Fatalf("seed %d cell %d issued at %v (again: %v)", seed, i, c.IssuedAt, b.cells[i].IssuedAt)
			}
		}
		s, err := genScale(seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if at := s.cells[0].IssuedAt; at < 5*sim.Second || at > 15*sim.Second {
			t.Fatalf("seed %d scale issued at %v", seed, at)
		}
		r1, err := genRestart(seed)
		if err != nil {
			t.Fatal(err)
		}
		r2, _ := genRestart(seed)
		if len(r1.scenarios) != ringScenarios || r1.scenarios[0].String() != r2.scenarios[0].String() ||
			r1.scenarios[0].MTBF != 600*sim.Second {
			t.Fatalf("seed %d restart scenarios %v vs %v", seed, r1.scenarios, r2.scenarios)
		}
	}
	if _, err := generate("nope", 1, references{}); err == nil {
		t.Error("unknown workload: want an error")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.25); got != 1.75 {
		t.Errorf("q1 = %v, want 1.75", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
