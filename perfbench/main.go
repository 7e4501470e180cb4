// Command perfbench is the repository's host-performance benchmark. It runs
// one workload through the public harness entry points (Runner,
// Runner.Measure, RunScenario), checks the simulated outputs, and prints
// host metrics: end to end with -trace 0, per layer with -trace 1. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the root of a checkout, which builds it first.
// See README.md for the workloads, the metrics and what should move them.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupRounds is how many times a run generates its inputs to time set-up.
const setupRounds = 5

// spanDir, relative to the checkout root, receives a traced run's spans.
const spanDir = ".bench_build"

func main() {
	mainAt := time.Now()
	var (
		name    = flag.String("workload", "", "workload: paper_hpl, scale_commgroups or restart_uncoord")
		seed    = flag.Int64("seed", refSeed, "input seed; 1 is the reference seed whose outputs are checked against committed values")
		seconds = flag.Float64("seconds", 35, "start repetitions for this many seconds; at least one runs")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1, got %d\n", *trace)
		os.Exit(2)
	}
	if *seconds <= 0 || math.IsNaN(*seconds) {
		fmt.Fprintf(os.Stderr, "perfbench: -seconds must be positive, got %v\n", *seconds)
		os.Exit(2)
	}
	b := &bench{name: *name, seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	res, err := b.run(mainAt, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	name   string
	seed   int64
	budget time.Duration
	plan   *plan
	o      outcome
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) run(mainAt time.Time, traced bool) (*result, error) {
	ref, err := loadReferences(b.name)
	if err != nil {
		return nil, err
	}
	setup, err := b.setup(mainAt, ref)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	if traced {
		err = b.measureTraced(m)
	} else {
		err = b.measure(m, setup)
	}
	if err != nil {
		return nil, err
	}
	for _, msg := range b.o.msgs {
		fmt.Printf("FAIL %s\n", msg)
	}
	fmt.Printf("%-22s %.4g (%d of %d cells failed)\n", "fail_frac", b.o.failFrac(), b.o.failed, b.o.attempted)
	return &result{Correct: b.o.failed == 0, Attempted: b.o.attempted, Failed: b.o.failed, Metrics: m}, nil
}

// setup generates the inputs setupRounds times and returns the set-up time:
// process start (the instant run.sh exported in PERFBENCH_T0) to main, plus
// the median input generation. Without PERFBENCH_T0 the first part is left
// out.
func (b *bench) setup(mainAt time.Time, ref references) (float64, error) {
	var startup float64
	if t0, err := strconv.ParseFloat(os.Getenv("PERFBENCH_T0"), 64); err == nil && t0 > 0 {
		startup = float64(mainAt.UnixNano())/1e9 - t0
	}
	gen := make([]float64, setupRounds)
	for i := range gen {
		t := time.Now()
		p, err := generate(b.name, b.seed, ref)
		if err != nil {
			return 0, err
		}
		gen[i] = time.Since(t).Seconds()
		b.plan = p
	}
	return startup + median(gen), nil
}

// repStats is one repetition's host measurements.
type repStats struct {
	wall, cpu float64      // seconds of the run alone: generation and checks excluded
	rt        runtimeStats // Go runtime statistics over the same interval
	r         repResult
}

// rep runs the workload's cells once and checks them. With a tracer the run
// records spans and obs counts, and runs under the CPU profiler.
func (b *bench) rep(tr *tracer) (repStats, error) {
	runtime.GC() // start each repetition from a collected heap
	var s repStats
	rt0, c0, t := readRuntime(), cpuSeconds(), time.Now()
	var prof bytes.Buffer
	if tr != nil {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return s, err
		}
	}
	s.r = b.plan.execute(tr)
	if tr != nil {
		pprof.StopCPUProfile()
		tr.cpuProfiles = append(tr.cpuProfiles, prof.Bytes())
	}
	s.wall, s.cpu, s.rt = time.Since(t).Seconds(), cpuSeconds()-c0, readRuntime().sub(rt0)
	b.plan.check(s.r, &b.o)
	return s, nil
}

// repeat runs repetitions until the deadline has passed; at least one runs.
func (b *bench) repeat(tr *tracer, deadline time.Time) ([]repStats, error) {
	var out []repStats
	for len(out) == 0 || time.Now().Before(deadline) {
		s, err := b.rep(tr)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// measure is the untraced run: repetitions for the whole budget, reporting
// medians.
func (b *bench) measure(m map[string]metric, setup float64) error {
	reps, err := b.repeat(nil, time.Now().Add(b.budget))
	if err != nil {
		return err
	}
	rss, err := peakRSS()
	if err != nil {
		return err
	}
	walls, cpus := column(reps, func(s repStats) float64 { return s.wall }), column(reps, func(s repStats) float64 { return s.cpu })
	m["wall_s"] = metric{median(walls), "s"}
	m["cpu_s"] = metric{median(cpus), "s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	m["setup_s"] = metric{setup, "s"}
	b.printMeta(len(reps), false)
	fmt.Printf("%-22s %.4f s (median of %d; quartiles %.4f..%.4f)\n", "wall_s", median(walls), len(walls), quantile(walls, 0.25), quantile(walls, 0.75))
	fmt.Printf("%-22s %.4f s (median of %d)\n", "cpu_s", median(cpus), len(cpus))
	fmt.Printf("%-22s %.1f MB\n", "peak_rss_mb", rss)
	fmt.Printf("%-22s %.6f s (median of %d input generations, plus process start)\n", "setup_s", setup, setupRounds)
	return nil
}

// measureTraced is the per-layer run. The first half of the budget runs
// untraced repetitions: the reference for the tracing overhead and the
// source of the Go runtime statistics. The second half runs traced
// repetitions, whose CPU and heap profiles are attributed to layers and
// whose spans and obs counts give the work done. Every figure is per
// repetition. The layer probes run last.
func (b *bench) measureTraced(m map[string]metric) error {
	start := time.Now()
	plain, err := b.repeat(nil, start.Add(b.budget/2))
	if err != nil {
		return err
	}
	tr := newTracer()
	heap0, err := allocProfile()
	if err != nil {
		return err
	}
	traced, err := b.repeat(tr, start.Add(b.budget))
	if err != nil {
		return err
	}
	heap1, err := allocProfile()
	if err != nil {
		return err
	}
	n := float64(len(traced))

	cpuTotal := 0.0
	for _, prof := range tr.cpuProfiles {
		byLayer, total, err := profileByLayer(prof, "cpu")
		if err != nil {
			return err
		}
		for l, ns := range byLayer {
			m[l+".cpu_s"] = metric{m[l+".cpu_s"].Value + ns/1e9/n, "s"}
		}
		cpuTotal += total / 1e9 / n
	}
	sum := 0.0
	for _, l := range layers {
		sum += m[l+".cpu_s"].Value
	}
	if math.Abs(sum-cpuTotal) > 1e-9*math.Max(1, cpuTotal) {
		return fmt.Errorf("layer CPU %.9f s does not sum to the profile total %.9f s", sum, cpuTotal)
	}
	m["obs.profile_cpu_s"] = metric{cpuTotal, "s"}

	a0, _, err := profileByLayer(heap0, "alloc_space")
	if err != nil {
		return err
	}
	a1, _, err := profileByLayer(heap1, "alloc_space")
	if err != nil {
		return err
	}
	for _, l := range layers {
		name := l + ".alloc_mb"
		if l == "runtime" {
			name = "runtime.layer_alloc_mb" // runtime.alloc_mb is the Go runtime's own total
		}
		m[name] = metric{(a1[l] - a0[l]) / (1 << 20) / n, "MB"}
	}

	tr.counts(m, n)
	last := traced[len(traced)-1].r
	lookups := last.hits + last.misses
	hitFrac := 0.0
	if lookups > 0 {
		hitFrac = float64(last.hits) / float64(lookups)
	}
	m["harness.baseline_hit_frac"] = metric{hitFrac, "ratio"}
	m["harness.baseline_lookups"] = metric{float64(lookups), "count"}
	m["harness.baseline_s"] = metric{tr.spanSeconds("Runner.Baseline") / n, "s"}
	m["harness.cell_s"] = metric{(tr.spanSeconds("Runner.Measure") + tr.spanSeconds("harness.RunScenario")) / n, "s"}
	m["harness.restarts"] = metric{float64(last.restarts), "count"}
	m["harness.replayed"] = metric{float64(last.replayed), "count"}

	var rt runtimeStats
	for _, s := range plain {
		rt = rt.add(s.rt)
	}
	np := float64(len(plain))
	m["runtime.alloc_mb"] = metric{rt.allocBytes / (1 << 20) / np, "MB"}
	m["runtime.mallocs"] = metric{rt.mallocs / np, "count"}
	m["runtime.gc_cycles"] = metric{rt.gcCycles / np, "count"}
	m["runtime.gc_cpu_s"] = metric{rt.gcCPU / np, "s"}

	plainWall := median(column(plain, func(s repStats) float64 { return s.wall }))
	tracedWall := median(column(traced, func(s repStats) float64 { return s.wall }))
	m["obs.trace_overhead"] = metric{tracedWall / plainWall, "ratio"}

	for _, p := range probes {
		v, err := p.run()
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		m[p.name] = metric{v, "ns"}
	}

	meta := b.printMeta(len(traced), true)
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.json", b.name, b.seed))
	if err := tr.write(path, meta); err != nil {
		return err
	}
	fmt.Printf("%-22s %s\n", "spans", path)
	for _, name := range sortedKeys(m) {
		fmt.Printf("%-30s %.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	return nil
}

// allocProfile returns the cumulative heap allocation profile. Two
// collections first, so every allocation made so far is published in it.
func allocProfile() ([]byte, error) {
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// printMeta prints the run's metadata as one JSON line and returns it.
func (b *bench) printMeta(reps int, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	meta := map[string]any{
		"workload": b.name, "seed": b.seed, "trace": traced, "repetitions": reps,
		"cells_per_repetition": b.plan.size(), "runner_width": b.plan.width,
		"gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(),
		"go_version": runtime.Version(), "commit": commit,
	}
	line, _ := json.Marshal(meta) // a map of strings, numbers and booleans always encodes
	fmt.Printf("meta %s\n", line)
	return meta
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSS is the process's peak resident set (VmHWM) in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

func column(reps []repStats, f func(repStats) float64) []float64 {
	out := make([]float64, len(reps))
	for i, s := range reps {
		out[i] = f(s)
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sortedCopy returns xs sorted ascending.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
