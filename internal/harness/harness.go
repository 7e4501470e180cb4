// Package harness builds simulated clusters and measures the paper's
// checkpoint-delay metrics: it runs a workload once without checkpointing
// (baseline) and once with a checkpoint issued at a chosen time, and reports
// the Effective Checkpoint Delay (Section 5) along with the Individual and
// Total Checkpoint Times from the cycle report.
//
// Runner is the one way to measure: it schedules independent measurement
// cells on a worker pool and memoizes baselines, and a width-1 Runner is the
// serial reference. RunScenario is the one way to restart: it runs a job to
// completion under periodic checkpoints and injected faults, restarting from
// the protocol's recovery line after every loss. All entry points return
// errors instead of panicking, so the stack is usable as an embedded service
// component.
package harness

import (
	"fmt"

	"gbcr/internal/cr"
	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
)

// ClusterConfig assembles the full stack's parameters.
type ClusterConfig struct {
	N       int
	Seed    int64
	Storage storage.Config
	Fabric  ib.Config
	MPI     mpi.Config
	CR      cr.Config
	// Tiers selects the checkpoint storage hierarchy. The zero value keeps
	// the legacy direct-to-central path (no hierarchy is built), so existing
	// configurations and their traces are untouched.
	Tiers tier.Config
}

// Validate reports whether the configuration can be assembled into a
// cluster. It front-runs the constructor invariants of the storage and
// fabric layers so callers get an error instead of a panic.
func (cfg ClusterConfig) Validate() error {
	if cfg.N <= 0 {
		return fmt.Errorf("harness: cluster needs at least one rank, got N=%d", cfg.N)
	}
	if cfg.Storage.AggregateBW <= 0 {
		return fmt.Errorf("harness: storage AggregateBW must be positive, got %v", cfg.Storage.AggregateBW)
	}
	if cfg.Storage.ClientBW <= 0 {
		return fmt.Errorf("harness: storage ClientBW must be positive, got %v", cfg.Storage.ClientBW)
	}
	if cfg.Fabric.LinkBW <= 0 {
		return fmt.Errorf("harness: fabric LinkBW must be positive, got %v", cfg.Fabric.LinkBW)
	}
	if cfg.CR.GroupSize < 0 {
		return fmt.Errorf("harness: checkpoint group size must be >= 0, got %d", cfg.CR.GroupSize)
	}
	if cfg.CR.GroupSize > cfg.N {
		return fmt.Errorf("harness: checkpoint group size %d exceeds job size %d", cfg.CR.GroupSize, cfg.N)
	}
	proto, err := cfg.CR.ResolveProtocol(cfg.N, cfg.MPI.LogMessages)
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	if err := cfg.Tiers.Validate(cfg.N); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	if cfg.Tiers.Mode.Tiered() {
		if !proto.Blocking() {
			return fmt.Errorf("harness: storage mode %q requires a blocking protocol; the uncoordinated protocol commits per rank on central-write completion", cfg.Tiers.Mode)
		}
		if cfg.CR.Staged {
			return fmt.Errorf("harness: storage mode %q already stages writes through faster tiers; disable cr.Config.Staged", cfg.Tiers.Mode)
		}
	}
	return nil
}

// PaperCluster returns the evaluation testbed configuration: 32 compute
// nodes on InfiniBand with 4 PVFS2 storage servers (~140 MB/s aggregate).
func PaperCluster(n int) ClusterConfig {
	crCfg := cr.DefaultConfig()
	// Fixed per-process snapshot setup (BLCR process freeze, checkpoint
	// file creation): paid once per member per checkpoint, which is what
	// makes very small checkpoint groups pay coordination many times over.
	crCfg.LocalSetup = 500 * sim.Millisecond
	return ClusterConfig{
		N:       n,
		Seed:    1,
		Storage: storage.PaperConfig(),
		Fabric:  ib.PaperConfig(),
		MPI:     mpi.DefaultConfig(),
		CR:      crCfg,
	}
}

// Cluster is one assembled simulation.
type Cluster struct {
	K       *sim.Kernel
	Storage *storage.System
	Fabric  *ib.Fabric
	Job     *mpi.Job
	Coord   *cr.Coordinator
	// Tiers is the checkpoint storage hierarchy, or nil for the legacy
	// direct-to-central path.
	Tiers *tier.Hierarchy
}

// NewCluster validates the configuration and builds the stack.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k := sim.NewKernel(cfg.Seed)
	st, err := storage.New(k, cfg.Storage)
	if err != nil {
		return nil, err
	}
	f, err := ib.New(k, cfg.Fabric)
	if err != nil {
		return nil, err
	}
	j, err := mpi.NewJob(k, f, cfg.MPI, cfg.N)
	if err != nil {
		return nil, err
	}
	co, err := cr.New(k, j, st, cfg.CR)
	if err != nil {
		return nil, err
	}
	var h *tier.Hierarchy
	if cfg.Tiers.Mode.Tiered() {
		h, err = tier.NewHierarchy(k, cfg.Tiers, cfg.N, st, cfg.Fabric.LinkBW)
		if err != nil {
			return nil, err
		}
		co.SetTiers(h)
	}
	return &Cluster{K: k, Storage: st, Fabric: f, Job: j, Coord: co, Tiers: h}, nil
}

// AttachObs wires an observability bus through every layer of the cluster:
// kernel scheduling, storage transfers, fabric connection management, MPI
// protocol decisions, and the C/R cycle all emit onto it, and its registry
// accumulates the per-layer counters and histograms. A nil bus detaches.
// The bus is deliberately not part of ClusterConfig: configs are memo keys
// for baseline caching, and observation must not change identity.
func (c *Cluster) AttachObs(bus *obs.Bus) {
	obs.ObserveKernel(c.K, bus)
	c.Storage.SetObs(bus)
	c.Tiers.SetObs(bus)
	c.Fabric.SetObs(bus)
	c.Job.SetObs(bus)
	c.Coord.SetObs(bus)
}

// launch wires a workload instance into the cluster's controllers.
func (c *Cluster) launch(w workload.Workload) (workload.Instance, error) {
	inst, err := w.Launch(c.Job)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.Job.Size(); i++ {
		i := i
		c.Coord.Controller(i).FootprintFn = func() int64 { return inst.Footprint(i) }
	}
	return inst, nil
}

// run drives the kernel to completion and checks the job finished. The
// label names the run in errors; it is not an obs event kind.
func (c *Cluster) run(label string) error {
	if err := c.K.Run(); err != nil {
		return fmt.Errorf("harness: %s run failed: %w", label, err)
	}
	if !c.Job.Finished() {
		return fmt.Errorf("harness: %s run ended with unfinished ranks", label)
	}
	return nil
}

// Result reports one Effective Checkpoint Delay measurement.
type Result struct {
	Workload  string
	GroupSize int
	IssuedAt  sim.Time
	Baseline  sim.Time // failure-free completion time
	WithCkpt  sim.Time // completion time with one checkpoint
	Report    *cr.CycleReport
}

// EffectiveDelay is the increase in application running time caused by the
// checkpoint.
func (r Result) EffectiveDelay() sim.Time { return r.WithCkpt - r.Baseline }

// MaxIndividual is the largest per-process downtime.
func (r Result) MaxIndividual() sim.Time { return r.Report.MaxIndividual() }

// Total is the Total Checkpoint Time.
func (r Result) Total() sim.Time { return r.Report.Total() }

func (r Result) String() string {
	return fmt.Sprintf("%s group=%d t=%v: effective=%v individual=%v total=%v",
		r.Workload, r.GroupSize, r.IssuedAt, r.EffectiveDelay(), r.MaxIndividual(), r.Total())
}

// baseline runs the workload with no checkpoint and returns its completion
// time. Runner.Baseline memoizes it.
func baseline(cfg ClusterConfig, w workload.Workload) (sim.Time, error) {
	c, err := NewCluster(cfg)
	if err != nil {
		return 0, err
	}
	if _, err := c.launch(w); err != nil {
		return 0, err
	}
	if err := c.run("baseline"); err != nil {
		return 0, err
	}
	return c.Job.FinishTime(), nil
}

// checkpointed runs the workload with one checkpoint at issuedAt, observed
// by bus (nil for none), and reports it against a measured baseline.
func checkpointed(cfg ClusterConfig, w workload.Workload, issuedAt, base sim.Time, bus *obs.Bus) (Result, error) {
	if issuedAt < 0 {
		return Result{}, fmt.Errorf("harness: checkpoint issuance time %v is negative", issuedAt)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		return Result{}, err
	}
	c.AttachObs(bus)
	if _, err := c.launch(w); err != nil {
		return Result{}, err
	}
	c.Coord.ScheduleCheckpoint(issuedAt)
	if err := c.run("checkpointed"); err != nil {
		return Result{}, err
	}
	reps, err := c.Coord.Reports()
	if err != nil {
		return Result{}, fmt.Errorf("harness: checkpointed run: %w", err)
	}
	if len(reps) != 1 {
		return Result{}, fmt.Errorf("harness: expected 1 checkpoint cycle, got %d (issued at %v, job finished at %v)",
			len(reps), issuedAt, c.Job.FinishTime())
	}
	return Result{
		Workload:  w.Name(),
		GroupSize: cfg.CR.GroupSize,
		IssuedAt:  issuedAt,
		Baseline:  base,
		WithCkpt:  c.Job.FinishTime(),
		Report:    reps[0],
	}, nil
}
