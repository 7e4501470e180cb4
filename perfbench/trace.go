package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"gbcr/internal/obs"
)

// span is one timed call the driver made into the program. Parent is the
// id of the enclosing span, -1 for a workload's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and aggregates the obs registries of every
// traced run. A nil *tracer records nothing, so the untraced path pays one
// nil check per call.
type tracer struct {
	t0          time.Time
	agg         *obs.Aggregate
	cpuProfiles [][]byte // one CPU profile per traced repetition

	mu    sync.Mutex
	spans []span // guarded by mu
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: obs.NewAggregate()}
}

func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, StartNS: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNS = now
}

// merge adds one run's registry to the aggregate. Aggregate serialises its
// own merges.
func (t *tracer) merge(s obs.Snapshot) {
	if t != nil {
		t.agg.Merge(s)
	}
}

// spanSeconds sums the durations of the spans with the given name.
func (t *tracer) spanSeconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// write saves the spans with the run's metadata as one JSON document.
func (t *tracer) write(path string, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(struct {
		Meta  map[string]any `json:"meta"`
		Spans []span         `json:"spans"`
	}{meta, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// counters are the obs registry counters the benchmark reports: key is
// "<layer>/<name>" as the registry labels it (the kernel's layer is the sim
// package), name the benchmark metric.
var counters = []struct{ key, name, unit string }{
	{"kernel/procs_spawned", "sim.procs_spawned", "count"},
	{"kernel/parks", "sim.parks", "count"},
	{"ib/msgs", "ib.msgs", "count"},
	{"ib/bytes", "ib.bytes", "B"},
	{"ib/connects", "ib.connects", "count"},
	{"ib/disconnects", "ib.disconnects", "count"},
	{"mpi/eager_sent", "mpi.eager_sent", "count"},
	{"mpi/rendezvous_sent", "mpi.rendezvous_sent", "count"},
	{"storage/transfers", "storage.transfers", "count"},
	{"storage/bytes", "storage.bytes", "B"},
	{"storage/rate_recomputes", "storage.rate_recomputes", "count"},
	{"storage/reads", "storage.reads", "count"},
	{"cr/cycles", "cr.cycles", "count"},
	{"cr/snapshots", "cr.snapshots", "count"},
	{"cr/snapshot_bytes", "cr.snapshot_bytes", "B"},
	{"cr/buffered_msgs", "cr.buffered_msgs", "count"},
	{"cr/cycle_aborts", "cr.cycle_aborts", "count"},
	{"fault/injected", "fault.injected", "count"},
}

// counts adds the aggregated counters to m, divided by reps; a counter the
// runs never touched reads 0.
func (t *tracer) counts(m map[string]metric, reps float64) {
	got := map[string]int64{}
	for _, c := range t.agg.Snapshot().Counters {
		got[c.Layer.String()+"/"+c.Name] = c.Value
	}
	for _, c := range counters {
		m[c.name] = metric{float64(got[c.key]) / reps, c.unit}
	}
}

// Go runtime statistics read through runtime/metrics.
var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

type runtimeStats struct{ allocBytes, mallocs, gcCycles, gcCPU float64 }

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{v(0), v(1), v(2), v(3)}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes + b.allocBytes, a.mallocs + b.mallocs, a.gcCycles + b.gcCycles, a.gcCPU + b.gcCPU}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}
