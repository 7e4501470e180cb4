package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/fault"
	"gbcr/internal/harness"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
	"gbcr/internal/workload/hpl"
)

// refSeed is the reference seed: at it the sweeps use the paper's exact
// issuance times, so their outputs are checked against committed values.
const refSeed = 1

// Ring sizing for restart_uncoord. At 7200 iterations the uncoordinated
// protocol's cumulative sender log, re-encoded into every snapshot, dominates
// the run's memory; at a few hundred iterations it would not show. A run
// takes about 550 s of simulated time, so an MTBF of 600 s loses it about
// once; a repetition of eight scenarios restarts about eight times. Peak
// memory is set by the longest attempt: at an MTBF of 120 s it depended on
// where the failures fell and varied by 16% between seeds, while here some
// scenario nearly always runs (almost) uninterrupted and shows the log's
// full growth.
const (
	ringRanks      = 32
	ringIters      = 7200
	ringChunk      = 50 * sim.Millisecond
	ringFootprint  = 16 // MB per rank
	ringInterval   = 8 * sim.Second
	ringMTBF       = "600s"
	ringScenarios  = 8
	scaleIssueAt   = 10 * sim.Second
	scaleCommGroup = 4
)

// plan is one workload's generated inputs and the checks on its outputs.
type plan struct {
	name string
	// width is the Runner's worker count, at most GOMAXPROCS.
	width int
	// Sweep workloads: cells and the per-cell expected effective delays
	// (nil off the reference seed).
	cells    []harness.Cell
	expected []float64
	// restart_uncoord: one fault scenario per run to completion.
	scenarios []fault.Scenario
	ring      workload.Ring
	ringCfg   harness.ClusterConfig
}

// generate builds a workload's inputs from the seed; ref holds the
// reference-seed expectations for the two sweeps.
func generate(name string, seed int64, ref references) (*plan, error) {
	var p *plan
	var err error
	switch name {
	case "paper_hpl":
		p, err = genPaperHPL(seed, ref.fig5)
	case "scale_commgroups":
		p, err = genScale(seed, ref.scale)
	case "restart_uncoord":
		p, err = genRestart(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want paper_hpl, scale_commgroups or restart_uncoord)", name)
	}
	if err != nil {
		return nil, err
	}
	if p.width == 0 {
		p.width = runtime.GOMAXPROCS(0)
	}
	return p, nil
}

// genPaperHPL is the Figure 5 matrix: HPL 8x4, checkpoint groups
// {All,16,8,4,2,1} x 8 issuance times. The reference seed uses Fig5's
// 50..400 s; other seeds draw one time from each of eight equal strata of
// [50 s, 400 s].
func genPaperHPL(seed int64, golden *table) (*plan, error) {
	w := hpl.PaperTimed()
	n := w.P * w.Q
	cfg := harness.PaperCluster(n)
	groups := []int{0, 16, 8, 4, 2, 1}
	times := make([]sim.Time, 8)
	rng := rand.New(rand.NewSource(seed))
	for i := range times {
		if seed == refSeed {
			times[i] = sim.Time(50*(i+1)) * sim.Second
			continue
		}
		lo := 50 + 350*float64(i)/8
		times[i] = wholeMillis(1000 * (lo + rng.Float64()*350/8))
	}
	p := &plan{name: "paper_hpl"}
	for _, gs := range groups {
		for _, at := range times {
			c := cfg
			c.CR.GroupSize = gs
			p.cells = append(p.cells, harness.Cell{Config: c, Workload: w, IssuedAt: at})
		}
	}
	if seed == refSeed {
		if golden == nil {
			return nil, errors.New("paper_hpl: reference seed needs the Figure 5 golden table")
		}
		if len(golden.Cells) != len(groups) {
			return nil, fmt.Errorf("paper_hpl: golden table has %d rows, want %d", len(golden.Cells), len(groups))
		}
		for _, row := range golden.Cells {
			if len(row) != len(times) {
				return nil, fmt.Errorf("paper_hpl: golden row has %d cells, want %d", len(row), len(times))
			}
			p.expected = append(p.expected, row...)
		}
	}
	return p, nil
}

// genScale is the ExtensionScalability matrix: CommGroups (comm group 4,
// 1 KiB eager exchange) at N in {32,64,128,256}, All(N) then Group(4), one
// checkpoint at 10 s at the reference seed and in [5 s, 15 s] otherwise.
func genScale(seed int64, expected []float64) (*plan, error) {
	at := scaleIssueAt
	if seed != refSeed {
		rng := rand.New(rand.NewSource(seed))
		at = wholeMillis(5000 + rng.Float64()*10000)
	}
	p := &plan{name: "scale_commgroups"}
	for _, gs := range []int{0, 4} {
		for _, n := range []int{32, 64, 128, 256} {
			w := workload.CommGroups{
				N: n, CommGroupSize: scaleCommGroup, Iters: 40 + 14*n,
				Chunk: 100 * sim.Millisecond, MsgBytes: 1024, FootprintMB: 180,
			}
			cfg := harness.PaperCluster(n)
			cfg.CR.GroupSize = gs
			p.cells = append(p.cells, harness.Cell{Config: cfg, Workload: w, IssuedAt: at})
		}
	}
	if seed == refSeed {
		if len(expected) != len(p.cells) {
			return nil, fmt.Errorf("scale_commgroups: %d expected values, want %d", len(expected), len(p.cells))
		}
		p.expected = expected
	}
	return p, nil
}

// genRestart is the uncoordinated ring run to completion under stochastic
// failures, once per scenario; each scenario's fault seed is derived from
// the benchmark seed.
func genRestart(seed int64) (*plan, error) {
	p := &plan{
		name: "restart_uncoord",
		ring: workload.Ring{N: ringRanks, Iters: ringIters, Chunk: ringChunk, FootprintMB: ringFootprint},
		// Scenarios run one at a time: run side by side, their peak heaps
		// line up differently from run to run, and peak RSS with them.
		width: 1,
	}
	cfg := harness.PaperCluster(ringRanks)
	cfg.CR.Protocol = protocol.Uncoordinated
	cfg.CR.HelperEnabled = false
	cfg.MPI.LogMessages = true
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("restart_uncoord: %w", err)
	}
	p.ringCfg = cfg
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ringScenarios; i++ {
		scn, err := fault.Parse(fmt.Sprintf("mtbf=%s;seed=%d", ringMTBF, 1+rng.Int63n(1<<31)))
		if err != nil {
			return nil, fmt.Errorf("restart_uncoord: %w", err)
		}
		p.scenarios = append(p.scenarios, scn)
	}
	return p, nil
}

// size is the number of cells one repetition attempts.
func (p *plan) size() int {
	if p.scenarios != nil {
		return len(p.scenarios)
	}
	return len(p.cells)
}

// repResult is what one repetition of a workload produced.
type repResult struct {
	results  []harness.Result             // sweeps
	avail    []harness.AvailabilityResult // restart_uncoord
	errs     []error                      // per cell, from the call itself
	hits     int                          // Runner.CacheStats
	misses   int
	restarts int
	replayed int
}

// execute runs every cell of the plan once on a fresh Runner. Spans and obs
// counts go to tr when it is non-nil.
func (p *plan) execute(tr *tracer) repResult {
	r := harness.NewRunner(p.width)
	root := tr.start(p.name, -1)
	defer tr.end(root)
	if p.scenarios != nil {
		return p.executeScenarios(r, tr, root)
	}
	if tr != nil {
		r.SetAggregate(tr.agg)
	}
	// Warm the baseline cache up front, one call per distinct key, as
	// Runner.Sweep does; every cell then hits it.
	var uniq []harness.Cell
	seen := map[string]bool{}
	for _, c := range p.cells {
		if k := harness.BaselineKey(c.Config, c.Workload); !seen[k] {
			seen[k] = true
			uniq = append(uniq, c)
		}
	}
	_ = r.ForEach(len(uniq), func(i int) error {
		id := tr.start("Runner.Baseline", root)
		defer tr.end(id)
		// A failed baseline is memoised and fails its cells below, where it
		// is counted.
		_, _ = r.Baseline(uniq[i].Config, uniq[i].Workload)
		return nil
	})
	out := repResult{results: make([]harness.Result, len(p.cells)), errs: make([]error, len(p.cells))}
	// The cells keep their own errors. ForEach's is a recovered panic, and
	// the cell that panicked is left without a result, so its check fails.
	_ = r.ForEach(len(p.cells), func(i int) error {
		id := tr.start("Runner.Measure", root)
		defer tr.end(id)
		c := p.cells[i]
		out.results[i], out.errs[i] = r.Measure(c.Config, c.Workload, c.IssuedAt)
		return nil
	})
	out.hits, out.misses = r.CacheStats()
	return out
}

func (p *plan) executeScenarios(r *harness.Runner, tr *tracer, root int) repResult {
	n := len(p.scenarios)
	out := repResult{avail: make([]harness.AvailabilityResult, n), errs: make([]error, n)}
	// As in execute, a panic leaves its scenario without a result.
	_ = r.ForEach(n, func(i int) error {
		var bus *obs.Bus
		if tr != nil {
			bus = obs.NewBus()
		}
		id := tr.start("harness.RunScenario", root)
		out.avail[i], out.errs[i] = harness.RunScenario(p.ringCfg, p.ring, p.scenarios[i], ringInterval, bus)
		tr.end(id)
		if bus != nil {
			tr.merge(bus.Metrics().Snapshot())
		}
		return nil
	})
	for _, a := range out.avail {
		out.restarts += a.Failures
		out.replayed += a.Replayed
	}
	return out
}

// check validates one repetition's outputs and tallies them into o.
func (p *plan) check(rep repResult, o *outcome) {
	if p.scenarios != nil {
		for i, a := range rep.avail {
			o.record(fmt.Sprintf("scenario %d (%s)", i, p.scenarios[i]), rep.errs[i], func() error { return checkRing(p.ring, a) })
		}
		return
	}
	for i, res := range rep.results {
		c := p.cells[i]
		label := fmt.Sprintf("cell %d (%s group=%d at=%v)", i, c.Workload.Name(), c.Config.CR.GroupSize, c.IssuedAt)
		o.record(label, rep.errs[i], func() error {
			if err := checkCell(res, c); err != nil {
				return err
			}
			if p.expected != nil && res.EffectiveDelay().Seconds() != p.expected[i] {
				return fmt.Errorf("effective delay %v s, reference %v s", res.EffectiveDelay().Seconds(), p.expected[i])
			}
			// All(N) delay must rise with N: the shared storage is the
			// regular protocol's bottleneck. Cells 0..3 are All(32..256).
			if p.name == "scale_commgroups" && i >= 1 && i <= 3 && rep.errs[i-1] == nil &&
				res.EffectiveDelay() <= rep.results[i-1].EffectiveDelay() {
				return fmt.Errorf("All(N) delay %v does not exceed the smaller job's %v",
					res.EffectiveDelay(), rep.results[i-1].EffectiveDelay())
			}
			return nil
		})
	}
}

// checkCell requires one checkpoint cycle that covered every rank and a job
// that finished after it. (The harness already refuses a run with another
// number of cycles or unfinished ranks; this checks the result it returned.)
func checkCell(res harness.Result, c harness.Cell) error {
	if res.Report == nil {
		return errors.New("no checkpoint cycle report")
	}
	if len(res.Report.Records) != c.Config.N {
		return fmt.Errorf("cycle covers %d ranks, want %d", len(res.Report.Records), c.Config.N)
	}
	for r, rec := range res.Report.Records {
		if rec.ResumeAt < rec.SafePointAt || rec.WriteEnd <= rec.WriteStart {
			return fmt.Errorf("rank %d record is incomplete: %+v", r, rec)
		}
	}
	if res.Baseline <= 0 || res.WithCkpt <= c.IssuedAt {
		return fmt.Errorf("job finished at %v (baseline %v), not after the checkpoint at %v", res.WithCkpt, res.Baseline, c.IssuedAt)
	}
	return nil
}

// checkRing requires the ring to finish with the failure-free checksum on
// every rank.
func checkRing(w workload.Ring, a harness.AvailabilityResult) error {
	inst, ok := a.FinalInst.(*workload.RingInstance)
	if !ok {
		return fmt.Errorf("final instance is %T, want *workload.RingInstance", a.FinalInst)
	}
	if len(inst.Sums) != w.N {
		return fmt.Errorf("%d rank sums, want %d", len(inst.Sums), w.N)
	}
	for r, got := range inst.Sums {
		if want := workload.ExpectedRingSum(w.N, w.Iters, r); got != want {
			return fmt.Errorf("rank %d sum %d, want %d", r, got, want)
		}
	}
	return nil
}

// outcome counts attempted and failed cells. A cell fails if its call
// returned an error or its output check failed; each cell counts once.
type outcome struct {
	attempted, failed int
	msgs              []string
}

func (o *outcome) record(label string, err error, check func() error) {
	o.attempted++
	if err == nil {
		err = check()
	}
	if err != nil {
		o.failed++
		o.msgs = append(o.msgs, fmt.Sprintf("%s: %v", label, err))
	}
}

// failFrac is failed cells over attempted cells.
func (o *outcome) failFrac() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.failed) / float64(o.attempted)
}

// wholeMillis rounds a millisecond count down to a whole-millisecond Time.
func wholeMillis(ms float64) sim.Time { return sim.Time(int64(ms)) * sim.Millisecond }
