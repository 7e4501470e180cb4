package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"

	"gbcr/internal/cr"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// Runner is the experiment engine and the only way to measure a checkpoint's
// delay. Every measurement cell — one (config, workload, issuance time)
// simulation — is an independent, deterministic, single-threaded run, so a
// sweep matrix can be scheduled across a bounded worker pool with results
// bit-identical to a width-1 Runner, the serial reference. The Runner also
// memoizes baselines: a failure-free run never schedules a checkpoint, so
// its completion time depends only on the canonicalized cluster
// configuration and the workload identity, and sweeps or figure
// regeneration never re-run an identical baseline. It is the only sweep
// executor: Run returns results in cell order, and RunTraced also merges
// per-cell traces in cell order. Restart experiments go through RunScenario.
//
// A Runner is safe for concurrent use by multiple goroutines.
type Runner struct {
	workers int

	// shared: mutex serializes the memo table and aggregate across worker goroutines
	mu        sync.Mutex
	baselines map[string]*baselineEntry // guarded by mu
	hits      int                       // guarded by mu
	misses    int                       // guarded by mu
	agg       *obs.Aggregate            // guarded by mu
}

// SetAggregate installs a cross-run metrics aggregate: every checkpointed
// cell measured afterwards runs with a private observability bus and merges
// its registry snapshot into agg on completion. The merge is commutative
// (counter sums; histogram count/sum/min/max), so the aggregate is identical
// at any worker count. A nil agg turns collection back off.
func (r *Runner) SetAggregate(agg *obs.Aggregate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.agg = agg
}

func (r *Runner) aggregate() *obs.Aggregate {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.agg
}

// baselineEntry memoizes one baseline run. The sync.Once dedups in-flight
// computation: concurrent cells needing the same baseline run it once and
// share the result.
type baselineEntry struct {
	// shared: mutex dedups the in-flight baseline run across workers
	once sync.Once
	t    sim.Time
	err  error
}

// NewRunner returns a Runner with the given worker-pool bound; workers <= 0
// selects GOMAXPROCS, the default.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, baselines: make(map[string]*baselineEntry)}
}

// Workers reports the worker-pool bound.
func (r *Runner) Workers() int { return r.workers }

// CacheStats reports baseline-cache hits and misses so far. A hit includes
// waiting on an in-flight computation of the same key.
func (r *Runner) CacheStats() (hits, misses int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits, r.misses
}

// BaselineKey canonicalizes a cell into its baseline-cache key. A baseline
// run never starts a checkpoint cycle, so no cr.Config field can influence
// its completion time; the whole CR section is therefore normalized to the
// zero value, which is what lets a sweep over checkpoint group sizes share
// one baseline. Every other ClusterConfig field (topology, seed, storage,
// fabric, MPI) and every exported workload parameter is part of the key.
func BaselineKey(cfg ClusterConfig, w workload.Workload) string {
	c := cfg
	c.CR = cr.Config{}
	return fmt.Sprintf("%+v|%s|%#v", c, w.Name(), w)
}

// Baseline returns the workload's failure-free completion time, memoized by
// BaselineKey.
func (r *Runner) Baseline(cfg ClusterConfig, w workload.Workload) (sim.Time, error) {
	key := BaselineKey(cfg, w)
	r.mu.Lock()
	e, ok := r.baselines[key]
	if ok {
		r.hits++
	} else {
		r.misses++
		e = &baselineEntry{}
		r.baselines[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.t, e.err = baseline(cfg, w) })
	return e.t, e.err
}

// Measure runs one checkpointed cell, taking the baseline from the cache.
// With an aggregate installed, the cell's metrics are merged into it.
func (r *Runner) Measure(cfg ClusterConfig, w workload.Workload, issuedAt sim.Time) (Result, error) {
	return r.MeasureObserved(cfg, w, issuedAt, nil)
}

// MeasureObserved is Measure with bus (nil for none) observing the
// checkpointed run: events from every layer flow to the bus's sinks and its
// registry accumulates the run's metrics. The baseline run is not observed,
// so the exported timeline covers exactly the checkpointed execution. With
// an aggregate installed the cell always runs on a bus — a private one when
// the caller passes nil — and its metrics are merged into the aggregate on
// success.
func (r *Runner) MeasureObserved(cfg ClusterConfig, w workload.Workload, issuedAt sim.Time, bus *obs.Bus) (Result, error) {
	base, err := r.Baseline(cfg, w)
	if err != nil {
		return Result{}, err
	}
	agg := r.aggregate()
	if agg != nil && bus == nil {
		bus = obs.NewBus()
	}
	res, err := checkpointed(cfg, w, issuedAt, base, bus)
	if err != nil {
		return res, err
	}
	if agg != nil {
		agg.Merge(bus.Metrics().Snapshot())
	}
	return res, nil
}

// Cell is one schedulable measurement: a cluster configuration (whose
// CR.GroupSize selects the protocol), a workload, and a checkpoint issuance
// time.
type Cell struct {
	Config   ClusterConfig
	Workload workload.Workload
	IssuedAt sim.Time
}

// label is the cell's stable identity in errors and merged outputs: it
// depends only on the cell index and contents, never on the schedule.
func (c Cell) label(i int) string {
	return fmt.Sprintf("cell %d: %s group=%d at=%v",
		i, c.Workload.Name(), c.Config.CR.GroupSize, c.IssuedAt)
}

// Run measures every cell on the worker pool and returns the results in
// cell order. Cells are independent simulations, so the schedule cannot
// change any result — only the wall-clock time. On failure the first error
// in cell order is returned along with the results computed so far.
func (r *Runner) Run(cells []Cell) ([]Result, error) {
	run, err := r.RunTraced(cells, TraceOptions{})
	return run.Results, err
}

// TraceOptions selects RunTraced's per-cell captures. Each cell records on
// private sinks and the captures are merged in cell order, so every output
// is byte-identical at any worker count; only wall-clock time changes.
type TraceOptions struct {
	Trace  bool // text timelines (TracedRun.RenderTimeline)
	JSONL  bool // JSON Lines traces (TracedRun.WriteJSONL)
	Chrome bool // Chrome traces, one process per cell (TracedRun.WriteChrome)
}

// TracedRun is one executed cell matrix: results in cell order plus the
// per-cell captures RunTraced was asked for.
type TracedRun struct {
	Cells   []Cell
	Results []Result

	mems    []*obs.MemorySink
	jsonls  []*bytes.Buffer
	chromes []*obs.ChromeSink
}

// RunTraced is Run with per-cell observability captures. Baselines come
// from the Runner's memo, so cells sharing a configuration never re-run
// the failure-free execution, and with an aggregate installed
// (SetAggregate) every cell's metrics are merged into it. On failure the
// first error in cell order is returned along with the results computed so
// far.
func (r *Runner) RunTraced(cells []Cell, opt TraceOptions) (*TracedRun, error) {
	run := &TracedRun{Cells: cells, Results: make([]Result, len(cells))}
	if opt.Trace {
		run.mems = make([]*obs.MemorySink, len(cells))
	}
	if opt.JSONL {
		run.jsonls = make([]*bytes.Buffer, len(cells))
	}
	if opt.Chrome {
		run.chromes = make([]*obs.ChromeSink, len(cells))
	}
	err := r.ForEach(len(cells), func(i int) error {
		c := cells[i]
		var bus *obs.Bus
		if opt.Trace || opt.JSONL || opt.Chrome {
			bus = obs.NewBus()
		}
		if opt.Trace {
			run.mems[i] = &obs.MemorySink{}
			bus.AddSink(run.mems[i])
		}
		if opt.JSONL {
			run.jsonls[i] = &bytes.Buffer{}
			bus.AddSink(obs.NewJSONL(run.jsonls[i]))
		}
		if opt.Chrome {
			// PID and label depend only on the cell index, so the merged
			// Chrome file is byte-identical at any worker count too.
			run.chromes[i] = obs.NewChrome()
			run.chromes[i].PID = i + 1
			run.chromes[i].ProcessName = c.label(i)
			bus.AddSink(run.chromes[i])
		}
		res, err := r.MeasureObserved(c.Config, c.Workload, c.IssuedAt, bus)
		if err != nil {
			return fmt.Errorf("%s: %w", c.label(i), err)
		}
		run.Results[i] = res
		return nil
	})
	return run, err
}

// RenderTimeline writes the merged text timeline: each cell's events in
// cell order under a stable header line.
func (run *TracedRun) RenderTimeline(w io.Writer) error {
	if run.mems == nil {
		return fmt.Errorf("harness: timeline was not captured; set TraceOptions.Trace")
	}
	for i, m := range run.mems {
		if _, err := fmt.Fprintf(w, "=== %s ===\n", run.Cells[i].label(i)); err != nil {
			return err
		}
		m.Render(w)
	}
	return nil
}

// WriteJSONL writes the merged JSON Lines trace: one cell-header object per
// cell, then that cell's events, in cell order.
func (run *TracedRun) WriteJSONL(w io.Writer) error {
	if run.jsonls == nil {
		return fmt.Errorf("harness: JSONL trace was not captured; set TraceOptions.JSONL")
	}
	for i, buf := range run.jsonls {
		c := run.Cells[i]
		hdr, err := json.Marshal(struct {
			Cell     int      `json:"cell"`
			Workload string   `json:"workload"`
			Group    int      `json:"group"`
			At       sim.Time `json:"at"`
		}{i, c.Workload.Name(), c.Config.CR.GroupSize, c.IssuedAt})
		if err != nil {
			return err
		}
		if _, err := w.Write(append(hdr, '\n')); err != nil {
			return err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome writes the merged Chrome trace, one process per cell.
func (run *TracedRun) WriteChrome(w io.Writer) error {
	if run.chromes == nil {
		return fmt.Errorf("harness: Chrome trace was not captured; set TraceOptions.Chrome")
	}
	return obs.RenderChromeMulti(w, run.chromes)
}

// ForEach runs fn(0..n-1) on the worker pool and waits for all of them.
// It is the generic scheduling primitive under Run for experiment grids
// that are not Measure-shaped (fault-injection runs, client scaling, ...).
// Panics in fn are captured as errors so a misbehaving cell cannot take
// down an embedding service. The first error in index order is returned.
func (r *Runner) ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := r.workers
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	// shared: channel distributes cell indices to the worker pool
	idx := make(chan int)
	// shared: mutex joins the worker pool before ForEach returns
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// shared: channel worker goroutines drain idx and write disjoint errs slots
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = protect(i, fn)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// protect runs fn(i), converting a panic into an error.
func protect(i int, fn func(i int) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("harness: cell %d panicked: %v", i, p)
		}
	}()
	return fn(i)
}

// Sweep measures the effective delay across group sizes and issuance times
// on the worker pool. groupSizes uses 0 for the regular protocol ("All").
// The result is indexed [groupSize][issuedAt] in the given orders and is
// bit-identical at any worker count. The baseline is computed once up front
// so the fan-out starts with a warm cache.
func (r *Runner) Sweep(cfg ClusterConfig, w workload.Workload, groupSizes []int, times []sim.Time) ([][]Result, error) {
	if _, err := r.Baseline(cfg, w); err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, len(groupSizes)*len(times))
	for _, gs := range groupSizes {
		for _, at := range times {
			c := cfg
			c.CR.GroupSize = gs
			cells = append(cells, Cell{Config: c, Workload: w, IssuedAt: at})
		}
	}
	flat, err := r.Run(cells)
	if err != nil {
		return nil, fmt.Errorf("harness: sweep: %w", err)
	}
	out := make([][]Result, len(groupSizes))
	for gi := range groupSizes {
		out[gi] = flat[gi*len(times) : (gi+1)*len(times) : (gi+1)*len(times)]
	}
	return out, nil
}
