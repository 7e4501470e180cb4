package harness

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/fault"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
	"gbcr/internal/workload/hpl"
)

// fig3Workload is the Figure 3 micro-benchmark workload at comm size 8.
func fig3Workload() workload.Workload {
	return workload.CommGroups{N: 32, CommGroupSize: 8, Iters: 900,
		Chunk: 100 * sim.Millisecond, FootprintMB: 180}
}

// TestRunnerSweepMatchesSerial is the determinism contract on the paper's
// two sweep matrices: an 8-worker Runner must return results bit-identical
// to the width-1 serial reference for the Figure 3 matrix (CommGroups
// micro-benchmark across checkpoint group sizes) and the Figure 5 matrix
// (HPL, 6 group sizes x 8 issuance times).
func TestRunnerSweepMatchesSerial(t *testing.T) {
	hplW := hpl.PaperTimed()
	cases := []struct {
		name       string
		cfg        ClusterConfig
		w          workload.Workload
		groupSizes []int
		times      []sim.Time
	}{
		{
			name: "Fig3", cfg: PaperCluster(32), w: fig3Workload(),
			groupSizes: []int{0, 16, 8, 4, 2},
			times:      []sim.Time{10 * sim.Second},
		},
		{
			name: "Fig5", cfg: PaperCluster(hplW.P * hplW.Q), w: hplW,
			groupSizes: []int{0, 16, 8, 4, 2, 1},
			times: []sim.Time{20 * sim.Second, 30 * sim.Second, 40 * sim.Second,
				50 * sim.Second, 60 * sim.Second, 70 * sim.Second,
				80 * sim.Second, 90 * sim.Second},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := NewRunner(1).Sweep(tc.cfg, tc.w, tc.groupSizes, tc.times)
			if err != nil {
				t.Fatal(err)
			}
			par, err := NewRunner(8).Sweep(tc.cfg, tc.w, tc.groupSizes, tc.times)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Fatalf("parallel sweep differs from serial reference:\nserial: %v\nparallel: %v", serial, par)
			}
		})
	}
}

func TestRunnerWorkersDefault(t *testing.T) {
	if got, want := NewRunner(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default workers %d, want GOMAXPROCS %d", got, want)
	}
	if got := NewRunner(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative workers %d, want GOMAXPROCS", got)
	}
	if got := NewRunner(5).Workers(); got != 5 {
		t.Fatalf("workers %d, want 5", got)
	}
}

func TestBaselineCacheHits(t *testing.T) {
	r := NewRunner(4)
	cfg := PaperCluster(8)
	w := workload.CommGroups{N: 8, CommGroupSize: 2, Iters: 50,
		Chunk: 10 * sim.Millisecond, FootprintMB: 10}

	first, err := r.Baseline(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.Baseline(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("cached baseline %v != first %v", again, first)
	}
	if hits, misses := r.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("after identical repeat: hits=%d misses=%d, want 1/1", hits, misses)
	}

	// CR settings are canonicalized out of the key: a baseline run never
	// starts a checkpoint cycle, so every group size shares one baseline.
	grouped := cfg
	grouped.CR.GroupSize = 4
	grouped.CR.Dynamic = true
	if _, err := r.Baseline(grouped, w); err != nil {
		t.Fatal(err)
	}
	if hits, misses := r.CacheStats(); hits != 2 || misses != 1 {
		t.Fatalf("after CR-only change: hits=%d misses=%d, want 2/1", hits, misses)
	}
}

func TestBaselineCacheMisses(t *testing.T) {
	base := PaperCluster(8)
	w := workload.CommGroups{N: 8, CommGroupSize: 2, Iters: 50,
		Chunk: 10 * sim.Millisecond, FootprintMB: 10}

	wSlower := w
	wSlower.Iters = 60
	wFatter := w
	wFatter.FootprintMB = 20

	mutations := []struct {
		name string
		cfg  ClusterConfig
		w    workload.Workload
	}{
		{"storage aggregate bw", func() ClusterConfig { c := base; c.Storage.AggregateBW /= 2; return c }(), w},
		{"storage client bw", func() ClusterConfig { c := base; c.Storage.ClientBW /= 2; return c }(), w},
		{"fabric link bw", func() ClusterConfig { c := base; c.Fabric.LinkBW /= 2; return c }(), w},
		{"seed", func() ClusterConfig { c := base; c.Seed++; return c }(), w},
		{"mpi config", func() ClusterConfig { c := base; c.MPI.EagerThreshold++; return c }(), w},
		{"workload iters", base, wSlower},
		{"workload footprint", base, wFatter},
	}
	baseKey := BaselineKey(base, w)
	for _, m := range mutations {
		if BaselineKey(m.cfg, m.w) == baseKey {
			t.Errorf("%s: key unchanged, cache would return a stale baseline", m.name)
		}
	}

	// And each distinct key is a real miss against a warm cache.
	r := NewRunner(2)
	if _, err := r.Baseline(base, w); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Baseline(base, wSlower); err != nil {
		t.Fatal(err)
	}
	if hits, misses := r.CacheStats(); hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", hits, misses)
	}
}

func TestRunnerErrorPropagation(t *testing.T) {
	r := NewRunner(2)
	bad := PaperCluster(8)
	bad.Storage.AggregateBW = 0
	w := workload.CommGroups{N: 8, CommGroupSize: 2, Iters: 10,
		Chunk: 10 * sim.Millisecond, FootprintMB: 10}

	if _, err := r.Measure(bad, w, sim.Second); err == nil {
		t.Fatal("invalid config must error, not panic")
	}
	if _, err := r.Measure(PaperCluster(8), w, -sim.Second); err == nil {
		t.Fatal("negative issuance time must error")
	}

	// A bad cell in a batch reports its index and spares the good cells.
	good := Cell{Config: PaperCluster(8), Workload: w, IssuedAt: 100 * sim.Millisecond}
	_, err := r.Run([]Cell{good, {Config: bad, Workload: w, IssuedAt: sim.Second}})
	if err == nil || !strings.Contains(err.Error(), "cell 1") {
		t.Fatalf("batch error should name cell 1, got: %v", err)
	}

	if _, err := NewRunner(2).Sweep(bad, w, []int{0, 2}, []sim.Time{sim.Second}); err == nil {
		t.Fatal("sweep over an invalid config must error")
	}
}

func TestForEachPanicBecomesError(t *testing.T) {
	err := NewRunner(3).ForEach(6, func(i int) error {
		if i == 4 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "cell 4 panicked: boom") {
		t.Fatalf("panic not converted: %v", err)
	}
}

func TestForEachFirstErrorInIndexOrder(t *testing.T) {
	sentinel := errors.New("sentinel")
	var calls atomic.Int32
	err := NewRunner(4).ForEach(8, func(i int) error {
		calls.Add(1)
		if i >= 3 {
			return fmt.Errorf("index %d: %w", i, sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "index 3") {
		t.Fatalf("want the index-3 error regardless of schedule, got: %v", err)
	}
	if calls.Load() != 8 {
		t.Fatalf("ForEach must run every index, ran %d of 8", calls.Load())
	}
}

// TestRunnerConcurrentBaselineDedup hammers one cache key from many
// goroutines: the baseline simulation must run exactly once, everyone else
// waits on the in-flight entry.
func TestRunnerConcurrentBaselineDedup(t *testing.T) {
	r := NewRunner(8)
	cfg := PaperCluster(8)
	w := workload.CommGroups{N: 8, CommGroupSize: 2, Iters: 50,
		Chunk: 10 * sim.Millisecond, FootprintMB: 10}
	times := make([]sim.Time, 16)
	err := r.ForEach(len(times), func(i int) error {
		var err error
		times[i], err = r.Baseline(cfg, w)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ti := range times {
		if ti != times[0] {
			t.Fatalf("goroutine %d saw baseline %v, others %v", i, ti, times[0])
		}
	}
	if hits, misses := r.CacheStats(); misses != 1 || hits != len(times)-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, len(times)-1)
	}
}

// equivCells is the equivalence matrix: all three protocols, two group
// sizes, repeated issuance times (exercising the baseline memo), and the
// tiered-storage hierarchy. Eight cells so width 8 puts one cell per worker.
func equivCells() []Cell {
	const n = 4
	w := workload.CommGroups{N: n, CommGroupSize: 2, Iters: 60,
		Chunk: 50 * sim.Millisecond, FootprintMB: 20}
	group := func(gs int) ClusterConfig {
		cfg := smallCluster(n)
		cfg.CR.GroupSize = gs
		cfg.CR.DefaultFootprint = 20 << 20
		return cfg
	}
	wholejob := group(0)
	wholejob.CR.Protocol = protocol.WholeJob
	uncoord := group(0)
	uncoord.CR.Protocol = protocol.Uncoordinated
	uncoord.CR.HelperEnabled = false
	uncoord.MPI.LogMessages = true
	tiered := group(2)
	tiered.Tiers.Mode = tier.ModeHierarchy
	tiered.Tiers.Replicas = 2
	return []Cell{
		{Config: group(2), Workload: w, IssuedAt: 1 * sim.Second},
		{Config: group(2), Workload: w, IssuedAt: 2 * sim.Second},
		{Config: group(4), Workload: w, IssuedAt: 1 * sim.Second},
		{Config: wholejob, Workload: w, IssuedAt: 1 * sim.Second},
		{Config: wholejob, Workload: w, IssuedAt: 2 * sim.Second},
		{Config: uncoord, Workload: w, IssuedAt: 1 * sim.Second},
		{Config: tiered, Workload: w, IssuedAt: 1 * sim.Second},
		{Config: tiered, Workload: w, IssuedAt: 2 * sim.Second},
	}
}

// tracedOutputs holds every merged artifact of one RunTraced execution.
type tracedOutputs struct {
	timeline, jsonl, chrome, metrics []byte
	results                          []Result
}

// captureTraced runs cells on a fresh Runner of the given width with every
// capture and an aggregate installed, and returns the merged outputs.
func captureTraced(t *testing.T, cells []Cell, workers int) tracedOutputs {
	t.Helper()
	r := NewRunner(workers)
	agg := obs.NewAggregate()
	r.SetAggregate(agg)
	run, err := r.RunTraced(cells, TraceOptions{Trace: true, JSONL: true, Chrome: true})
	if err != nil {
		t.Fatalf("RunTraced(workers=%d): %v", workers, err)
	}
	var out tracedOutputs
	var buf bytes.Buffer
	if err := run.RenderTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out.timeline = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := run.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	out.jsonl = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := run.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	out.chrome = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := agg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out.metrics = append([]byte(nil), buf.Bytes()...)
	out.results = run.Results
	return out
}

// TestShardedEquivalenceMatrix is the committed regression for the
// Runner's merge contract: byte-identical obs traces (text timeline, JSONL,
// Chrome) and equal metrics aggregates and CycleReports between a width-1
// Runner and widths S in {2,4,8}, across all three protocols, two issuance
// times, and the tiered-storage hierarchy. Tracing must not change a
// result either: the traced results equal plain Run's. Run under -race in
// CI (runner-equivalence job).
func TestShardedEquivalenceMatrix(t *testing.T) {
	cells := equivCells()
	want := captureTraced(t, cells, 1)
	if len(want.results) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(want.results), len(cells))
	}
	plain, err := NewRunner(1).Run(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, want.results) {
		t.Fatal("traced results differ from untraced Run")
	}
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("S=%d", workers), func(t *testing.T) {
			got := captureTraced(t, cells, workers)
			if !bytes.Equal(got.timeline, want.timeline) {
				t.Errorf("text timeline differs from serial (%d vs %d bytes)",
					len(got.timeline), len(want.timeline))
			}
			if !bytes.Equal(got.jsonl, want.jsonl) {
				t.Errorf("JSONL trace differs from serial (%d vs %d bytes)",
					len(got.jsonl), len(want.jsonl))
			}
			if !bytes.Equal(got.chrome, want.chrome) {
				t.Errorf("Chrome trace differs from serial (%d vs %d bytes)",
					len(got.chrome), len(want.chrome))
			}
			if !bytes.Equal(got.metrics, want.metrics) {
				t.Errorf("metrics aggregate differs from serial:\nserial: %s\nS=%d:  %s",
					want.metrics, workers, got.metrics)
			}
			if !reflect.DeepEqual(got.results, want.results) {
				t.Errorf("results (cycle reports included) differ from serial")
			}
		})
	}
}

// TestShardedFaultScenarioEquivalence spreads a batch of -faults
// availability scenarios over Runner.ForEach: each scenario is one serial
// restart chain (RunScenario), and the batch's traces and results must be
// identical at any worker count.
func TestShardedFaultScenarioEquivalence(t *testing.T) {
	const n = 4
	w := scenarioRing(n)
	specs := []string{
		"crash:phase=write,epoch=2,rank=1;seed=3",
		"crash:phase=sync,epoch=1,rank=0;seed=5",
		"outage@650ms+200ms;crash:phase=write,epoch=2,rank=2;seed=7",
		"memloss@2s:count=2;seed=5",
	}
	scns := make([]fault.Scenario, len(specs))
	for i, spec := range specs {
		scns[i] = mustParse(t, spec)
	}
	runBatch := func(workers int) ([][]byte, []AvailabilityResult) {
		traces := make([][]byte, len(specs))
		results := make([]AvailabilityResult, len(specs))
		err := NewRunner(workers).ForEach(len(specs), func(i int) error {
			cfg := smallCluster(n)
			cfg.CR.GroupSize = 2
			cfg.CR.DefaultFootprint = 5 << 20
			if strings.Contains(specs[i], "memloss") {
				cfg.Tiers.Mode = tier.ModeHierarchy
				cfg.Tiers.Replicas = 2
			}
			var buf bytes.Buffer
			js := obs.NewJSONL(&buf)
			res, err := RunScenario(cfg, w, scns[i], 600*sim.Millisecond, obs.NewBus(js))
			if err != nil {
				return fmt.Errorf("scenario %d: %w", i, err)
			}
			if js.Err() != nil {
				return js.Err()
			}
			res.FinalInst = nil // instances carry pointers; compare the numbers
			traces[i] = buf.Bytes()
			results[i] = res
			return nil
		})
		if err != nil {
			t.Fatalf("batch (workers=%d): %v", workers, err)
		}
		return traces, results
	}
	wantTraces, wantResults := runBatch(1)
	for _, workers := range []int{2, 4} {
		gotTraces, gotResults := runBatch(workers)
		for i := range specs {
			if !bytes.Equal(gotTraces[i], wantTraces[i]) {
				t.Errorf("workers=%d scenario %d: trace differs from serial (%d vs %d bytes)",
					workers, i, len(gotTraces[i]), len(wantTraces[i]))
			}
		}
		if !reflect.DeepEqual(gotResults, wantResults) {
			t.Errorf("workers=%d: availability results differ from serial", workers)
		}
	}
}

// TestRunTracedValidation covers the capture accessors' rejection paths: a
// capture that was not requested cannot be written.
func TestRunTracedValidation(t *testing.T) {
	run, err := NewRunner(2).RunTraced(equivCells()[:2], TraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run.RenderTimeline(&buf); err == nil {
		t.Fatal("timeline rendered without capture")
	}
	if err := run.WriteJSONL(&buf); err == nil {
		t.Fatal("JSONL written without capture")
	}
	if err := run.WriteChrome(&buf); err == nil {
		t.Fatal("Chrome written without capture")
	}
}
