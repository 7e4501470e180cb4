package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"gbcr/internal/fault"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
	"gbcr/internal/workload"
	"gbcr/internal/workload/motif"
)

// smallCluster keeps test runtimes low: modest storage bandwidth, small
// footprints.
func smallCluster(n int) ClusterConfig {
	cfg := PaperCluster(n)
	cfg.Storage = storage.Config{AggregateBW: 100 << 20, ClientBW: 100 << 20}
	cfg.CR.LocalSetup = 0 // keep cycle timing simple for the unit tests
	return cfg
}

// crashRestart runs w to completion with a checkpoint every interval and
// one scripted whole-job crash at crashAt. It checks that the job was lost
// exactly once and that every rank resumed from a snapshot read back from
// central storage; res.FinalInst is the instance of the attempt that
// finished.
func crashRestart(cfg ClusterConfig, w workload.Restartable, interval, crashAt sim.Time, bus *obs.Bus) (AvailabilityResult, error) {
	scn, err := fault.Parse("crash@" + time.Duration(crashAt).String())
	if err != nil {
		return AvailabilityResult{}, err
	}
	res, err := RunScenario(cfg, w, scn, interval, bus)
	if err != nil {
		return res, err
	}
	if res.Failures != 1 {
		return res, fmt.Errorf("failures = %d, want 1 (the crash at %v)", res.Failures, crashAt)
	}
	if res.RecoveredCentral != cfg.N {
		return res, fmt.Errorf("%d of %d ranks restarted from a snapshot, want all", res.RecoveredCentral, cfg.N)
	}
	return res, nil
}

func TestMeasureCommGroups(t *testing.T) {
	cfg := smallCluster(8)
	w := workload.CommGroups{N: 8, CommGroupSize: 4, Iters: 100,
		Chunk: 100 * sim.Millisecond, FootprintMB: 50}
	res, err := NewRunner(1).Measure(cfg, w, 2*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline <= 0 || res.WithCkpt <= res.Baseline {
		t.Fatalf("times: %+v", res)
	}
	// Effective delay lies between Individual and Total (Section 5), with a
	// little slack for coordination overhead.
	d := res.EffectiveDelay()
	if d < res.MaxIndividual()-100*sim.Millisecond || d > res.Total()+500*sim.Millisecond {
		t.Fatalf("effective %v outside [individual %v, total %v]",
			d, res.MaxIndividual(), res.Total())
	}
}

func TestSweepGroupSizeHalving(t *testing.T) {
	// Figure 3's headline: while the checkpoint group covers the
	// communication group, halving the checkpoint group roughly halves the
	// effective delay.
	cfg := smallCluster(8)
	w := workload.CommGroups{N: 8, CommGroupSize: 2, Iters: 120,
		Chunk: 100 * sim.Millisecond, FootprintMB: 100}
	res, err := NewRunner(0).Sweep(cfg, w, []int{0, 4, 2}, []sim.Time{3 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	all := res[0][0].EffectiveDelay()
	g4 := res[1][0].EffectiveDelay()
	g2 := res[2][0].EffectiveDelay()
	if !(all > g4 && g4 > g2) {
		t.Fatalf("delays not decreasing: all=%v g4=%v g2=%v", all, g4, g2)
	}
	ratio := func(a, b sim.Time) float64 { return float64(a) / float64(b) }
	if r := ratio(all, g4); r < 1.6 || r > 2.6 {
		t.Fatalf("all/g4 ratio %.2f, want ~2", r)
	}
	if r := ratio(g4, g2); r < 1.6 || r > 2.6 {
		t.Fatalf("g4/g2 ratio %.2f, want ~2", r)
	}
}

func TestRestartRingEquivalence(t *testing.T) {
	// The end-to-end consistency check: kill the job mid-run after a
	// group-based checkpoint and verify the restarted execution produces
	// exactly the failure-free results.
	const n, iters = 6, 60
	for _, gs := range []int{0, 1, 2, 3} {
		cfg := smallCluster(n)
		cfg.CR.GroupSize = gs
		cfg.CR.DefaultFootprint = 10 << 20
		w := workload.Ring{N: n, Iters: iters, Chunk: 50 * sim.Millisecond, FootprintMB: 10}
		res, err := crashRestart(cfg, w, 800*sim.Millisecond, 1700*sim.Millisecond, nil)
		if err != nil {
			t.Fatalf("groupsize=%d: %v", gs, err)
		}
		inst := res.FinalInst.(*workload.RingInstance)
		for me := 0; me < n; me++ {
			want := workload.ExpectedRingSum(n, iters, me)
			if inst.Sums[me] != want {
				t.Fatalf("groupsize=%d rank %d: restarted sum %d, want %d (recovery line inconsistent)",
					gs, me, inst.Sums[me], want)
			}
		}
	}
}

func TestRestartAllgatherEquivalence(t *testing.T) {
	const n, iters = 4, 40
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 2
	w := workload.AllgatherLoop{N: n, Iters: iters, Chunk: 50 * sim.Millisecond, FootprintMB: 10}
	// Failure-free reference.
	ref, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	launched, err := w.Launch(ref.Job)
	if err != nil {
		t.Fatal(err)
	}
	refInst := launched.(*workload.AllgatherInstance)
	if err := ref.K.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := crashRestart(cfg, w, 700*sim.Millisecond, 1500*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := res.FinalInst.(*workload.AllgatherInstance)
	for me := 0; me < n; me++ {
		if inst.Hashes[me] != refInst.Hashes[me] {
			t.Fatalf("rank %d: restarted hash %x, reference %x", me, inst.Hashes[me], refInst.Hashes[me])
		}
	}
}

func TestRestartSecondCheckpointPreferred(t *testing.T) {
	// With two committed epochs before the crash, the restart resumes from
	// the later one.
	const n, iters = 4, 80
	const interval, crashAt = sim.Second, 3200 * sim.Millisecond
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 2
	cfg.CR.DefaultFootprint = 5 << 20
	w := workload.Ring{N: n, Iters: iters, Chunk: 50 * sim.Millisecond, FootprintMB: 5}
	base, err := NewRunner(1).Baseline(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	mem := &obs.MemorySink{}
	res, err := crashRestart(cfg, w, interval, crashAt, obs.NewBus(mem))
	if err != nil {
		t.Fatal(err)
	}
	inst := res.FinalInst.(*workload.RingInstance)
	for me := 0; me < n; me++ {
		if inst.Sums[me] != workload.ExpectedRingSum(n, iters, me) {
			t.Fatalf("rank %d corrupted after epoch-2 restart", me)
		}
	}
	// The first attempt's events precede the crash on the shared timeline.
	commits := 0
	for _, e := range mem.Events() {
		if e.Layer == obs.LayerFault && e.What == "crash" {
			break
		}
		if e.Layer == obs.LayerCR && e.What == "cycle-done" {
			commits++
		}
	}
	if commits != 2 {
		t.Fatalf("%d epochs committed before the crash, want 2", commits)
	}
	// Epoch 1 was taken at the first request, after at most interval of
	// work, so a restart from it redoes at least base-interval; resuming
	// from epoch 2 is the only way to finish sooner.
	if after := res.Wall - crashAt; after >= base-interval {
		t.Fatalf("restarted attempt took %v of a %v job: it did not resume from epoch 2", after, base)
	}
}

func TestRestartBeforeFirstCheckpointFromScratch(t *testing.T) {
	// A crash before any epoch commits leaves no recovery line: the job
	// restarts from scratch and still finishes with the failure-free results.
	const n, iters = 2, 50
	cfg := smallCluster(n)
	w := workload.Ring{N: n, Iters: iters, Chunk: 50 * sim.Millisecond, FootprintMB: 5}
	res, err := RunScenario(cfg, w, mustParse(t, "crash@1s"), 2*sim.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 || res.RecoveredCentral != 0 {
		t.Fatalf("failures = %d, ranks restored = %d; want 1 failure and a restart from scratch",
			res.Failures, res.RecoveredCentral)
	}
	inst := res.FinalInst.(*workload.RingInstance)
	for me := 0; me < n; me++ {
		if want := workload.ExpectedRingSum(n, iters, me); inst.Sums[me] != want {
			t.Fatalf("rank %d: sum %d after a restart from scratch, want %d", me, inst.Sums[me], want)
		}
	}
}

func TestPaperClusterDefaults(t *testing.T) {
	cfg := PaperCluster(32)
	if cfg.N != 32 || cfg.Storage.Servers != 4 {
		t.Fatalf("paper cluster: %+v", cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Job.Size() != 32 {
		t.Fatal("job size")
	}
}

func TestRestartStencilEquivalence(t *testing.T) {
	const n = 5
	w := workload.Stencil{N: n, Cells: 8, Iters: 50, Chunk: 40 * sim.Millisecond, FootprintMB: 8}
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 2
	// Failure-free reference.
	ref, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	launched, err := w.Launch(ref.Job)
	if err != nil {
		t.Fatal(err)
	}
	refInst := launched.(*workload.StencilInstance)
	if err := ref.K.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := crashRestart(cfg, w, 600*sim.Millisecond, 1400*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := res.FinalInst.(*workload.StencilInstance)
	for me := 0; me < n; me++ {
		if inst.Checksums[me] != refInst.Checksums[me] {
			t.Fatalf("rank %d: restarted checksum %v, reference %v",
				me, inst.Checksums[me], refInst.Checksums[me])
		}
	}
}

func TestPeriodicCheckpointsUnderFailures(t *testing.T) {
	const n = 4
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 2
	cfg.CR.DefaultFootprint = 5 << 20
	w := workload.Ring{N: n, Iters: 150, Chunk: 20 * sim.Millisecond, FootprintMB: 5}
	// Baseline without failures for reference.
	base, err := NewRunner(1).Baseline(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	scn := fault.Scenario{MTBF: 1500 * sim.Millisecond, Seed: 7}
	res, err := RunScenario(cfg, w, scn, 600*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("test premise: no failures injected (raise mtbf pressure)")
	}
	if res.Checkpoints == 0 {
		t.Fatal("no checkpoints completed")
	}
	if res.Wall <= base {
		t.Fatalf("wall %v not above failure-free baseline %v despite %d failures",
			res.Wall, base, res.Failures)
	}
	// With checkpoint-restart, total time stays bounded: without recovery
	// the job could never finish at MTBF << runtime; with it, the wall time
	// is within a small multiple of the baseline.
	if res.Wall > 6*base {
		t.Fatalf("wall %v too large vs baseline %v (recovery not effective)", res.Wall, base)
	}
}

func TestPeriodicCheckpointsNoFailures(t *testing.T) {
	const n = 3
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 0
	cfg.CR.DefaultFootprint = 2 << 20
	w := workload.Ring{N: n, Iters: 60, Chunk: 20 * sim.Millisecond, FootprintMB: 2}
	// Effectively infinite MTBF: no failures, several checkpoints.
	scn := fault.Scenario{MTBF: 1000 * sim.Hour, Seed: 3}
	res, err := RunScenario(cfg, w, scn, 300*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("unexpected failures: %d", res.Failures)
	}
	if res.Checkpoints < 2 {
		t.Fatalf("periodic scheduling broken: %d checkpoints", res.Checkpoints)
	}
}

func TestRestartRealMinerEquivalence(t *testing.T) {
	// Kill a real data-mining run mid-level and restart it from a
	// group-staggered checkpoint: the mined pattern set must be identical
	// to the failure-free run's (and hence to the serial reference).
	const n = 4
	m := motif.Mine{Graphs: 32, Vertices: 12, Degree: 3, Labels: 4,
		MinSup: 10, MaxLen: 3, Seed: 5}
	w := motif.MineResumable{Mine: m, LevelCompute: 400 * sim.Millisecond}
	cfg := smallCluster(n)
	cfg.CR.GroupSize = 2
	want := m.MineSerial()
	res, err := crashRestart(cfg, w, 600*sim.Millisecond, 1100*sim.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := res.FinalInst.(*motif.ResumableInstance)
	if len(inst.Frequent) != len(want) {
		t.Fatalf("restarted miner found %d patterns, serial %d", len(inst.Frequent), len(want))
	}
	//lint:allow-simdeterminism order-independent verification; every entry is checked
	for pat, sup := range want {
		if inst.Frequent[pat] != sup {
			t.Fatalf("pattern %q: restarted %d, serial %d", pat, inst.Frequent[pat], sup)
		}
	}
}

func TestMeasureObservedRecordsTimeline(t *testing.T) {
	cfg := smallCluster(4)
	cfg.CR.GroupSize = 2
	w := workload.CommGroups{N: 4, CommGroupSize: 2, Iters: 60,
		Chunk: 100 * sim.Millisecond, FootprintMB: 20}
	mem := &obs.MemorySink{}
	bus := obs.NewBus(mem)
	res, err := NewRunner(1).MeasureObserved(cfg, w, 2*sim.Second, bus)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectiveDelay() <= 0 {
		t.Fatalf("result: %v", res)
	}
	if mem.Len() == 0 {
		t.Fatal("event timeline empty")
	}
	if s := res.String(); !strings.Contains(s, "effective=") {
		t.Fatalf("String(): %q", s)
	}
	// Every rank appears in the timeline, and every layer emitted.
	for r := 0; r < 4; r++ {
		if len(mem.ByRank(r)) == 0 {
			t.Fatalf("rank %d missing from timeline", r)
		}
	}
	for l := obs.LayerKernel; l <= obs.LayerCR; l++ {
		if len(mem.ByLayer(l)) == 0 {
			t.Fatalf("layer %v missing from timeline", l)
		}
	}
	// The registry saw the same cycle the report did.
	snap := bus.Metrics().Snapshot()
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("metrics snapshot empty: %+v", snap)
	}
	for _, c := range snap.Counters {
		if c.Layer == obs.LayerCR && c.Name == "cycles" && c.Value != 1 {
			t.Fatalf("cr.cycles = %d, want 1", c.Value)
		}
	}
}

// Property: restart equivalence holds across random group sizes, checkpoint
// intervals, crash times, and protocol options.
func TestQuickRestartEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(5) + 2
		cfg := smallCluster(n)
		cfg.Seed = seed
		cfg.CR.GroupSize = rng.Intn(n + 1)
		cfg.CR.HelperEnabled = rng.Intn(3) != 0
		cfg.CR.DefaultFootprint = int64(rng.Intn(15)+1) << 20
		chunk := sim.Time(rng.Intn(40)+20) * sim.Millisecond
		interval := sim.Time(rng.Intn(500)+300) * sim.Millisecond
		// The crash must land after the first cycle completes; the slowest
		// configuration (singleton groups) takes well under 2.2 s here.
		crashAt := interval + sim.Time(rng.Intn(500)+2200)*sim.Millisecond
		// And the job must still be running when it lands.
		iters := int(crashAt/chunk) + rng.Intn(40) + 1
		w := workload.Ring{N: n, Iters: iters, Chunk: chunk, FootprintMB: 8}
		res, err := crashRestart(cfg, w, interval, crashAt, nil)
		if err != nil {
			t.Logf("seed %d (n=%d gs=%d): %v", seed, n, cfg.CR.GroupSize, err)
			return false
		}
		inst := res.FinalInst.(*workload.RingInstance)
		for me := 0; me < n; me++ {
			if inst.Sums[me] != workload.ExpectedRingSum(n, iters, me) {
				t.Logf("seed %d rank %d mismatch", seed, me)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// observedRun measures one small checkpointed run with all three exporter
// sinks attached and returns the serialized bytes of each.
func observedRun(t *testing.T) (jsonl, chrome, metrics []byte) {
	t.Helper()
	cfg := smallCluster(4)
	cfg.CR.GroupSize = 2
	w := workload.CommGroups{N: 4, CommGroupSize: 2, Iters: 60,
		Chunk: 100 * sim.Millisecond, FootprintMB: 20}
	var jb bytes.Buffer
	js := obs.NewJSONL(&jb)
	ch := obs.NewChrome()
	bus := obs.NewBus(js, ch)
	if _, err := NewRunner(1).MeasureObserved(cfg, w, 2*sim.Second, bus); err != nil {
		t.Fatal(err)
	}
	if js.Err() != nil {
		t.Fatal(js.Err())
	}
	var cb, mb bytes.Buffer
	if err := ch.Render(&cb); err != nil {
		t.Fatal(err)
	}
	if err := bus.Metrics().Snapshot().WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return jb.Bytes(), cb.Bytes(), mb.Bytes()
}

// TestObservedExportsDeterministic asserts the core exporter contract: two
// same-seed runs produce byte-identical JSONL, Chrome trace, and metrics
// output.
func TestObservedExportsDeterministic(t *testing.T) {
	j1, c1, m1 := observedRun(t)
	j2, c2, m2 := observedRun(t)
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL output differs between identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Error("Chrome trace output differs between identical runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics JSON differs between identical runs")
	}
	if len(j1) == 0 || len(c1) == 0 || len(m1) == 0 {
		t.Fatalf("empty export: jsonl=%d chrome=%d metrics=%d bytes", len(j1), len(c1), len(m1))
	}
}
