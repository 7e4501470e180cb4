// Command ckptsim runs one checkpointing experiment on the simulated
// cluster and prints the paper's delay metrics.
//
// Examples:
//
//	ckptsim -workload hpl -group 4 -at 50
//	ckptsim -workload commgroups -n 32 -comm 8 -group 8 -at 10
//	ckptsim -workload motif -group 0 -at 30        # regular protocol
//	ckptsim -workload barrier -group 8 -at 55      # near the barrier
//	ckptsim -workload commgroups -group 4 -dynamic # dynamic group formation
//	ckptsim -workload ring -mtbf 60 -interval 15   # run under failures
//	ckptsim -workload ring -interval 5 -faults 'crash@12s;outage@20s+5s'
//	ckptsim -workload ring -interval 5 -faults scenario.txt -trace-chrome t.json
//	ckptsim -workload ring -protocol wholejob -at 10        # ICPP'06 baseline
//	ckptsim -workload ring -protocol uncoord -interval 5 -faults crash@12s
//	ckptsim -workload ring -storage hierarchy -replicas 2 -interval 5 -faults 'memloss@17s:count=2'
//	ckptsim -workload ring -storage burst -interval 5 -faults 'bboutage@20s+5s'
//	ckptsim -workload commgroups -group 8 -at 10,20,30,40 -workers 4  # one cell per time
//
// A comma-separated -at list runs one cell per issuance time on the
// harness Runner's worker pool (-workers bounds it; 0 = GOMAXPROCS) and
// merges the traces in cell order, so every output is byte-identical at
// any worker count. Invalid flags — including time flags that are negative,
// NaN, infinite or beyond the simulated clock's range — and failed runs
// exit with status 1 and a one-line message.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"gbcr/internal/cr/protocol"
	"gbcr/internal/fault"
	"gbcr/internal/harness"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
	"gbcr/internal/workload/hpl"
	"gbcr/internal/workload/motif"
)

// fail prints a one-line message and exits with status 1.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ckptsim: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		name      = flag.String("workload", "commgroups", "workload: commgroups, barrier, hpl, motif, ring, allgather, stencil")
		n         = flag.Int("n", 32, "number of ranks (commgroups/barrier/ring/allgather/stencil)")
		comm      = flag.Int("comm", 8, "communication group size (commgroups/barrier)")
		group     = flag.Int("group", 8, "checkpoint group size (0 = regular, all at once)")
		proto     = flag.String("protocol", "group", "coordination protocol: group, wholejob, uncoord")
		at        = flag.String("at", "10", "checkpoint issuance time(s) in seconds; a comma-separated list runs one cell per time")
		workers   = flag.Int("workers", 0, "worker pool size for an -at list (0 = GOMAXPROCS, 1 = serial); merged outputs are identical at any size")
		foot      = flag.Int64("footprint", 180, "per-process footprint in MB (commgroups/barrier/ring/allgather/stencil)")
		iters     = flag.Int("iters", 900, "iterations (commgroups/ring/allgather/stencil)")
		dynamic   = flag.Bool("dynamic", false, "dynamic group formation from the communication pattern")
		helper    = flag.Bool("helper", true, "enable the passive-coordination helper thread")
		verbose   = flag.Bool("v", false, "print per-rank checkpoint records")
		showTrace = flag.Bool("trace", false, "print the protocol timeline")
		traceJSON = flag.String("trace-json", "", "write the full event timeline as JSON Lines to this file")
		traceChr  = flag.String("trace-chrome", "", "write a Chrome trace-event file (chrome://tracing, Perfetto) to this file")
		metrics   = flag.String("metrics-json", "", "write the run's metrics registry as JSON to this file")
		mtbf      = flag.Float64("mtbf", 0, "run to completion under failures with this MTBF in seconds (restartable workloads)")
		interval  = flag.Float64("interval", 0, "periodic checkpoint interval in seconds (with -mtbf or -faults)")
		seed      = flag.Int64("seed", 1, "failure-injection seed (with -mtbf or -faults)")
		faults    = flag.String("faults", "", "fault scenario: a spec like 'crash@12s;outage@20s+5s;mtbf=90s' or a file holding one")
		storeMode = flag.String("storage", "central", "checkpoint storage: central, burst, ram, hierarchy")
		replicas  = flag.Int("replicas", 0, "RAM-tier partner replicas per rank (with -storage ram or hierarchy; 0 = default 2)")
	)
	flag.Parse()

	// Flags that only steer the failure runner are rejected, not ignored,
	// when nothing enables that runner: a silently dropped -interval or
	// -seed would misreport what the run measured.
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	ats, err := parseTimes(*at)
	if err != nil {
		fail("%v", err)
	}
	mtbfT, err := seconds("mtbf", *mtbf)
	if err != nil {
		fail("%v", err)
	}
	intervalT, err := seconds("interval", *interval)
	if err != nil {
		fail("%v", err)
	}
	failureRun := *mtbf > 0 || *faults != ""
	if set["interval"] && !failureRun {
		fail("-interval only applies to failure runs; add -mtbf or -faults")
	}
	if set["seed"] && !failureRun {
		fail("-seed only applies to failure runs; add -mtbf or -faults")
	}

	// Protocol selection. Group-structure flags only make sense under the
	// group protocol; passing them with another kind is rejected, not
	// ignored, so the printed protocol line always matches what ran.
	kind := protocol.Kind(*proto)
	knownKind := false
	for _, k := range protocol.Kinds() {
		if kind == k {
			knownKind = true
			break
		}
	}
	if !knownKind {
		fail("unknown -protocol %q (want group, wholejob, or uncoord)", *proto)
	}
	if kind != protocol.Group {
		if set["group"] {
			fail("-group only applies to -protocol group; %s fixes the group structure", kind)
		}
		if set["dynamic"] {
			fail("-dynamic only applies to -protocol group; %s does not form groups", kind)
		}
	}
	if kind == protocol.Uncoordinated && set["helper"] {
		fail("-helper does not apply to -protocol uncoord; there is no passive-coordination state to bound")
	}

	// Storage-hierarchy selection. Like the group-structure flags, unusable
	// combinations are rejected rather than ignored: -replicas without a
	// RAM-bearing mode, or a tiered mode under a protocol whose commit model
	// the hierarchy does not support.
	mode := tier.Mode(*storeMode)
	if !mode.Valid() {
		fail("unknown -storage %q (want central, burst, ram, or hierarchy)", *storeMode)
	}
	if set["replicas"] && !mode.HasRAM() {
		fail("-replicas only applies to -storage ram or hierarchy; %s has no RAM replication tier", mode)
	}
	if *replicas < 0 {
		fail("-replicas must not be negative, got %d", *replicas)
	}
	if mode.Tiered() && kind == protocol.Uncoordinated {
		fail("-storage %s requires a blocking protocol; uncoord commits per rank on central-write completion", mode)
	}

	// Issuance times and pool width. Multiple -at values (or -workers) form
	// a cell matrix run on the Runner's worker pool. Combinations it cannot
	// honor are rejected, not ignored: a failure run is one serial restart
	// chain, so there are no cells to spread over workers.
	matrixRun := len(ats) > 1 || set["workers"]
	if *workers < 0 {
		fail("-workers must not be negative, got %d", *workers)
	}
	if matrixRun && failureRun {
		fail("-workers/-at lists do not apply to failure runs; an availability run is one serial restart chain")
	}
	if matrixRun && *verbose {
		fail("-v only applies to single-cell runs; use -trace for the merged timeline")
	}

	if *n <= 0 {
		fail("-n must be positive, got %d", *n)
	}
	if *comm <= 0 {
		fail("-comm must be positive, got %d", *comm)
	}
	if *group < 0 {
		fail("-group must not be negative, got %d", *group)
	}
	if *foot < 0 {
		fail("-footprint must not be negative, got %d", *foot)
	}
	if *iters <= 0 {
		fail("-iters must be positive, got %d", *iters)
	}

	var w workload.Workload
	ranks := *n
	switch *name {
	case "commgroups":
		w = workload.CommGroups{N: *n, CommGroupSize: *comm, Iters: *iters,
			Chunk: 100 * sim.Millisecond, FootprintMB: *foot}
	case "barrier":
		w = workload.BarrierPhases{N: *n, CommGroupSize: *comm,
			Chunk: 100 * sim.Millisecond, BarrierEvery: sim.Minute,
			Phases: 3, FootprintMB: *foot}
	case "hpl":
		hw := hpl.PaperTimed()
		ranks = hw.P * hw.Q
		w = hw
	case "motif":
		mw := motif.PaperTimed()
		ranks = mw.N
		w = mw
	case "ring":
		w = workload.Ring{N: *n, Iters: *iters,
			Chunk: 50 * sim.Millisecond, FootprintMB: *foot}
	case "allgather":
		w = workload.AllgatherLoop{N: *n, Iters: *iters,
			Chunk: 50 * sim.Millisecond, FootprintMB: *foot}
	case "stencil":
		w = workload.Stencil{N: *n, Cells: 64, Iters: *iters,
			Chunk: 50 * sim.Millisecond, FootprintMB: *foot}
	default:
		fail("unknown workload %q (want commgroups, barrier, hpl, motif, ring, allgather, or stencil)", *name)
	}
	if *group > ranks {
		fail("-group %d exceeds the job size %d", *group, ranks)
	}

	cfg := harness.PaperCluster(ranks)
	cfg.CR.Protocol = kind
	cfg.CR.GroupSize = *group
	cfg.CR.Dynamic = *dynamic
	cfg.CR.HelperEnabled = *helper
	switch kind {
	case protocol.WholeJob:
		cfg.CR.GroupSize = 0
		cfg.CR.Dynamic = false
	case protocol.Uncoordinated:
		cfg.CR.GroupSize = 0
		cfg.CR.Dynamic = false
		cfg.CR.HelperEnabled = false
		cfg.MPI.LogMessages = true
	}
	if mode.Tiered() {
		cfg.Tiers.Mode = mode
		cfg.Tiers.Replicas = *replicas
		if err := cfg.Validate(); err != nil {
			fail("%v", err)
		}
	}

	if matrixRun {
		cells := make([]harness.Cell, len(ats))
		for i, t := range ats {
			cells[i] = harness.Cell{Config: cfg, Workload: w, IssuedAt: t}
		}
		r := harness.NewRunner(*workers)
		var agg *obs.Aggregate
		if *metrics != "" {
			agg = obs.NewAggregate()
			r.SetAggregate(agg)
		}
		run, err := r.RunTraced(cells, harness.TraceOptions{
			Trace:  *showTrace,
			JSONL:  *traceJSON != "",
			Chrome: *traceChr != "",
		})
		if err != nil {
			fail("%v", err)
		}
		if *traceJSON != "" {
			var buf bytes.Buffer
			if err := run.WriteJSONL(&buf); err != nil {
				fail("encoding %s: %v", *traceJSON, err)
			}
			if err := os.WriteFile(*traceJSON, buf.Bytes(), 0o644); err != nil {
				fail("%v", err)
			}
		}
		if *traceChr != "" {
			var buf bytes.Buffer
			if err := run.WriteChrome(&buf); err != nil {
				fail("encoding %s: %v", *traceChr, err)
			}
			if err := os.WriteFile(*traceChr, buf.Bytes(), 0o644); err != nil {
				fail("%v", err)
			}
		}
		if *metrics != "" {
			var buf bytes.Buffer
			if err := agg.Snapshot().WriteJSON(&buf); err != nil {
				fail("encoding %s: %v", *metrics, err)
			}
			if err := os.WriteFile(*metrics, buf.Bytes(), 0o644); err != nil {
				fail("%v", err)
			}
		}
		fmt.Printf("workload:              %s (%d ranks)\n", w.Name(), ranks)
		fmt.Printf("protocol:              %s\n", protocolName(kind, *group, ranks, *dynamic))
		if mode.Tiered() {
			if mode.HasRAM() {
				fmt.Printf("storage:               %s (%d RAM replicas)\n", mode, cfg.Tiers.ReplicaCount())
			} else {
				fmt.Printf("storage:               %s\n", mode)
			}
		}
		fmt.Printf("worker pool:           %d workers over %d cells\n", min(r.Workers(), len(cells)), len(cells))
		for i, res := range run.Results {
			fmt.Printf("cell %d: at=%-6v baseline=%v with=%v delay=%v total=%v\n",
				i, res.IssuedAt, res.Baseline, res.WithCkpt, res.EffectiveDelay(), res.Total())
		}
		if *showTrace {
			fmt.Println("\nmerged timeline:")
			if err := run.RenderTimeline(os.Stdout); err != nil {
				fail("%v", err)
			}
		}
		return
	}

	// Build the observability bus only when some output is requested: a nil
	// bus keeps the instrumented hot paths on their single-pointer-check
	// disabled route.
	var (
		bus    *obs.Bus
		mem    *obs.MemorySink
		jsonl  *obs.JSONLSink
		jsonlB bytes.Buffer
		chrome *obs.ChromeSink
	)
	if *showTrace || *traceJSON != "" || *traceChr != "" || *metrics != "" {
		bus = obs.NewBus()
		if *showTrace {
			mem = &obs.MemorySink{}
			bus.AddSink(mem)
		}
		if *traceJSON != "" {
			jsonl = obs.NewJSONL(&jsonlB)
			bus.AddSink(jsonl)
		}
		if *traceChr != "" {
			chrome = obs.NewChrome()
			bus.AddSink(chrome)
		}
	}
	writeOutputs := func() {
		if *traceJSON != "" {
			if jsonl.Err() != nil {
				fail("encoding %s: %v", *traceJSON, jsonl.Err())
			}
			if err := os.WriteFile(*traceJSON, jsonlB.Bytes(), 0o644); err != nil {
				fail("%v", err)
			}
		}
		if *traceChr != "" {
			var buf bytes.Buffer
			if err := chrome.Render(&buf); err != nil {
				fail("encoding %s: %v", *traceChr, err)
			}
			if err := os.WriteFile(*traceChr, buf.Bytes(), 0o644); err != nil {
				fail("%v", err)
			}
		}
		if *metrics != "" {
			var buf bytes.Buffer
			if err := bus.Metrics().Snapshot().WriteJSON(&buf); err != nil {
				fail("encoding %s: %v", *metrics, err)
			}
			if err := os.WriteFile(*metrics, buf.Bytes(), 0o644); err != nil {
				fail("%v", err)
			}
		}
	}

	if failureRun {
		rw, ok := w.(workload.Restartable)
		if !ok {
			fail("-mtbf/-faults require a restartable workload (ring, allgather, stencil)")
		}
		scn := loadScenario(*faults)
		if set["mtbf"] {
			scn.MTBF = mtbfT
		}
		if set["seed"] || scn.Seed == 0 {
			scn.Seed = *seed
		}
		iv := intervalT
		if iv <= 0 {
			if scn.MTBF <= 0 {
				fail("-faults without a scenario MTBF needs an explicit -interval")
			}
			iv = scn.MTBF / 4
		}
		fr, err := harness.RunScenario(cfg, rw, scn, iv, bus)
		if err != nil {
			fail("%v", err)
		}
		writeOutputs()
		fmt.Printf("workload:              %s (%d ranks)\n", w.Name(), ranks)
		fmt.Printf("protocol:              %s\n", protocolName(kind, *group, ranks, *dynamic))
		if mode.Tiered() {
			if mode.HasRAM() {
				fmt.Printf("storage:               %s (%d RAM replicas)\n", mode, cfg.Tiers.ReplicaCount())
			} else {
				fmt.Printf("storage:               %s\n", mode)
			}
		}
		if scn.MTBF > 0 {
			fmt.Printf("checkpoint interval:   %v (MTBF %v)\n", iv, scn.MTBF)
		} else {
			fmt.Printf("checkpoint interval:   %v\n", iv)
		}
		if len(scn.Faults) > 0 {
			fmt.Printf("injected faults:       %s\n", scn.String())
		}
		fmt.Printf("wall time to finish:   %v\n", fr.Wall)
		fmt.Printf("failures survived:     %d\n", fr.Failures)
		fmt.Printf("checkpoints completed: %d\n", fr.Checkpoints)
		if fr.CycleAborts > 0 {
			fmt.Printf("cycles aborted:        %d\n", fr.CycleAborts)
		}
		if fr.CorruptSkipped > 0 {
			fmt.Printf("corrupt epochs skipped: %d\n", fr.CorruptSkipped)
		}
		if mode.Tiered() && fr.Failures > 0 {
			fmt.Printf("recovered from tiers:  ram=%d burst=%d central=%d\n",
				fr.RecoveredRAM, fr.RecoveredBurst, fr.RecoveredCentral)
		}
		if *showTrace {
			fmt.Println("\nfault injections:")
			for _, e := range mem.ByLayer(obs.LayerFault) {
				fmt.Println(e)
			}
		}
		return
	}

	res, err := harness.NewRunner(1).MeasureObserved(cfg, w, ats[0], bus)
	if err != nil {
		fail("%v", err)
	}
	writeOutputs()
	fmt.Printf("workload:              %s (%d ranks)\n", w.Name(), ranks)
	fmt.Printf("protocol:              %s\n", protocolName(kind, *group, ranks, *dynamic))
	fmt.Printf("checkpoint issued at:  %v\n", res.IssuedAt)
	fmt.Printf("baseline completion:   %v\n", res.Baseline)
	fmt.Printf("with checkpoint:       %v\n", res.WithCkpt)
	fmt.Printf("effective ckpt delay:  %v\n", res.EffectiveDelay())
	fmt.Printf("individual ckpt time:  %v mean, %v max\n",
		res.Report.MeanIndividual(), res.Report.MaxIndividual())
	fmt.Printf("total ckpt time:       %v\n", res.Total())
	fmt.Printf("storage share:         %.1f%%\n", 100*res.Report.StorageShare())
	fmt.Printf("groups:                %v\n", res.Report.Groups)
	if *showTrace {
		fmt.Println("\ncycle gantt:")
		fmt.Print(res.Report.Gantt(72))
		fmt.Println("\nprotocol timeline (cr layer):")
		for _, e := range mem.ByLayer(obs.LayerCR) {
			fmt.Println(e)
		}
		fmt.Println("\nevent counts by rank and layer:")
		fmt.Print(mem.Summary())
	}
	if *verbose {
		fmt.Println("\nper-rank records:")
		for rank, rec := range res.Report.Records {
			fmt.Printf("  rank %2d group %d: stop %v, write %v..%v (%.0f MB), resume %v, downtime %v\n",
				rank, rec.Group, rec.SafePointAt, rec.WriteStart, rec.WriteEnd,
				float64(rec.Footprint)/(1<<20), rec.ResumeAt, rec.Individual())
		}
	}
}

// parseTimes parses the -at flag: one or more comma-separated checkpoint
// issuance times in seconds.
func parseTimes(arg string) ([]sim.Time, error) {
	parts := strings.Split(arg, ",")
	out := make([]sim.Time, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("-at: %q is not a number", p)
		}
		t, err := seconds("at", v)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// seconds converts the value of time flag -name, given in seconds, to a
// sim.Time. Negative values, NaN, infinities and values beyond the range
// of sim.Time are errors: a silent conversion would run a different
// experiment than the one asked for.
func seconds(name string, v float64) (sim.Time, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v)*float64(sim.Second) >= math.MaxInt64 {
		return 0, fmt.Errorf("-%s: %v is not a finite time in seconds", name, v)
	}
	if v < 0 {
		return 0, fmt.Errorf("-%s must not be negative, got %v", name, v)
	}
	return sim.Seconds(v), nil
}

// loadScenario parses the -faults argument: the name of a file holding a
// scenario spec, or the spec itself.
func loadScenario(arg string) fault.Scenario {
	if arg == "" {
		return fault.Scenario{}
	}
	spec := arg
	if data, err := os.ReadFile(arg); err == nil {
		spec = strings.TrimSpace(string(data))
	}
	scn, err := fault.Parse(spec)
	if err != nil {
		fail("%v", err)
	}
	return scn
}

func protocolName(kind protocol.Kind, group, ranks int, dynamic bool) string {
	switch {
	case kind == protocol.WholeJob:
		return "whole-job blocking (all at once)"
	case kind == protocol.Uncoordinated:
		return "uncoordinated + sender-based message logging"
	case dynamic:
		return fmt.Sprintf("group-based (dynamic formation, max size %d)", group)
	case group <= 0 || group >= ranks:
		return "regular coordinated (all at once)"
	default:
		return fmt.Sprintf("group-based (static groups of %d)", group)
	}
}
