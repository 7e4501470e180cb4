package cr

import (
	"fmt"

	"gbcr/internal/blcr"
	"gbcr/internal/cr/protocol"
	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
	"gbcr/internal/storage/tier"
)

// Coordinator is the global C/R coordinator: it forms the checkpoint groups,
// walks them through the cycle one group at a time over the out-of-band
// channel, and archives the resulting snapshots.
type Coordinator struct {
	k     *sim.Kernel
	job   *mpi.Job
	store *storage.System
	cfg   Config
	ep    *ib.Endpoint
	ctls  []*Controller
	snaps *blcr.Store

	// tiers, when set, routes snapshot writes through a multi-tier storage
	// hierarchy instead of the central service: writes acknowledge at the
	// fastest durable tier and epoch commit gates on replication degree
	// there, while the central drain continues in the background. Nil keeps
	// the legacy direct-to-central path.
	tiers *tier.Hierarchy

	// proto is the resolved coordination protocol; tag is the protocol label
	// appended to cycle events when a protocol was selected explicitly
	// (empty for default-config runs, keeping their traces byte-identical to
	// the pre-protocol-interface engine).
	proto protocol.Protocol
	tag   string

	active    bool
	cycle     int
	groups    [][]int
	turn      int
	ready     map[int]bool
	saved     map[int]bool
	requestAt sim.Time
	reports   []*CycleReport

	// Two-phase commit state: epoch counts committed global checkpoints and
	// diverges from cycle once a cycle aborts (the retried cycle gets a new
	// cycle number but targets the same epoch). cycleRetries counts
	// consecutive aborts of the current target epoch; aborts counts them
	// over the coordinator's lifetime.
	epoch        int
	cycleRetries int
	aborts       int
	epochOf      map[int]int // staged mode: cycle -> target epoch for late drains

	// Staged-mode drain tracking, per cycle (drains can outlive the cycle).
	drains     map[int]map[int]bool
	repByCycle map[int]*CycleReport

	// OnCycleDone, if non-nil, is invoked when a global checkpoint
	// completes.
	OnCycleDone func(rep *CycleReport)

	// PhaseHook, if non-nil, observes every per-rank protocol phase entry:
	// phase is drawn from the protocol's phase vocabulary (Protocol.Phases —
	// "sync", "teardown", "write", "resume" for the blocking protocols,
	// "write", "resume" for the uncoordinated one), and epoch is the epoch
	// the cycle is building (committed epochs + 1). The fault injector uses
	// it to target "rank R during phase P of epoch E".
	PhaseHook func(rank int, phase string, epoch int)

	// bus receives the protocol timeline (cycle control on the system
	// track, per-rank phase spans) when a sink is attached; nil is fine.
	bus *obs.Bus
	// cycleMetrics holds one registry per cycle: the controllers observe
	// phase durations and buffering deltas into it, and the cycle's
	// CycleReport reads its summary numbers from it. Entries are retained
	// for the life of the coordinator because reports keep pointers and
	// staged drains can land observations after the cycle closes.
	cycleMetrics map[int]*obs.Metrics
}

// SetObs attaches an observability bus (nil detaches). The protocol timeline
// — cycle request/turn/group-done/cycle-done on the system track, per-rank
// phase spans (sync, teardown, write, resume-wait, drain) — is emitted as
// cr-layer events, and per-cycle phase numbers are mirrored into the bus's
// registry.
func (co *Coordinator) SetObs(b *obs.Bus) { co.bus = b }

// emit records a cr-layer coordinator event on the system track.
func (co *Coordinator) emit(what, detail string) {
	co.bus.Emit(obs.Event{At: co.k.Now(), Rank: -1, Layer: obs.LayerCR,
		Type: obs.Instant, What: what, Detail: detail})
}

// metricsFor returns cycle's registry, creating it on first use. Unlike the
// bus (optional, user-attached), the per-cycle registry always exists: it is
// the authoritative source of CycleReport's phase summaries.
func (co *Coordinator) metricsFor(cycle int) *obs.Metrics {
	m := co.cycleMetrics[cycle]
	if m == nil {
		m = obs.NewMetrics()
		co.cycleMetrics[cycle] = m
	}
	return m
}

// New attaches a coordinator and per-rank controllers to a job. It must be
// called before ranks are launched so the hooks observe all activity.
func New(k *sim.Kernel, job *mpi.Job, store *storage.System, cfg Config) (*Coordinator, error) {
	if cfg.DefaultFootprint <= 0 {
		cfg.DefaultFootprint = DefaultConfig().DefaultFootprint
	}
	proto, err := cfg.resolveProtocol(job.Size(), job.Config().LogMessages)
	if err != nil {
		return nil, fmt.Errorf("cr: %w", err)
	}
	ep, err := job.Fabric().AddEndpoint(CoordinatorID)
	if err != nil {
		return nil, fmt.Errorf("cr: registering coordinator endpoint: %w", err)
	}
	co := &Coordinator{
		k:            k,
		job:          job,
		store:        store,
		cfg:          cfg,
		ep:           ep,
		proto:        proto,
		snaps:        blcr.NewStore(job.Size()),
		drains:       make(map[int]map[int]bool),
		repByCycle:   make(map[int]*CycleReport),
		epochOf:      make(map[int]int),
		cycleMetrics: make(map[int]*obs.Metrics),
	}
	if cfg.Protocol != "" {
		// Tag cycle events with the explicitly-selected protocol so traces
		// of different protocols are distinguishable side by side.
		co.tag = fmt.Sprintf(" [%s]", cfg.Protocol)
	}
	co.ep.OnOOBImmediate = func(src int, payload any) bool {
		co.onMsg(src, payload)
		return true
	}
	for i := 0; i < job.Size(); i++ {
		co.ctls = append(co.ctls, newController(co, job.Rank(i)))
	}
	return co, nil
}

// Controller returns the controller attached to a rank.
func (co *Coordinator) Controller(rank int) *Controller { return co.ctls[rank] }

// Protocol returns the resolved coordination protocol. Restart paths use it
// to select the restart line, the fault layer to resolve phase names.
func (co *Coordinator) Protocol() protocol.Protocol { return co.proto }

// Snapshots returns the archive of completed checkpoints.
func (co *Coordinator) Snapshots() *blcr.Store { return co.snaps }

// SetTiers installs a multi-tier storage hierarchy and binds it to the
// snapshot archive so every copy the hierarchy places is recorded in the
// archive's residency ledger. Call before ranks run; nil is a no-op (the
// legacy direct-to-central write path stays in effect).
func (co *Coordinator) SetTiers(h *tier.Hierarchy) {
	if h == nil {
		return
	}
	co.tiers = h
	h.Bind(co.snaps)
}

// Tiers returns the installed storage hierarchy, or nil.
func (co *Coordinator) Tiers() *tier.Hierarchy { return co.tiers }

// Reports returns the completed cycle reports with per-rank records filled
// in. Call it after the simulation has quiesced: the last group's resume
// records land shortly after the cycle completes; reading earlier returns
// an error.
func (co *Coordinator) Reports() ([]*CycleReport, error) {
	for _, rep := range co.reports {
		if err := co.fillRecords(rep); err != nil {
			return nil, err
		}
	}
	return co.reports, nil
}

func (co *Coordinator) fillRecords(rep *CycleReport) error {
	if rep.Records != nil {
		return nil
	}
	records := make([]CkptRecord, co.job.Size())
	for i, ctl := range co.ctls {
		found := false
		for _, rec := range ctl.records {
			if rec.Cycle == rep.Cycle {
				records[i] = rec
				if d, ok := ctl.bufByCycle[rep.Cycle]; ok {
					records[i].BufferedMsgs = d.msgs
					records[i].BufferedReqs = d.reqs
					records[i].BufferedBytes = d.bytes
				}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("cr: rank %d has no record for cycle %d (report read too early?)", i, rep.Cycle)
		}
	}
	rep.Records = records
	return nil
}

// Active reports whether a checkpoint cycle is in progress.
func (co *Coordinator) Active() bool { return co.active }

// Epoch returns the number of committed global checkpoints. It lags behind
// the cycle count once cycles abort: only a cycle whose every snapshot is
// written and verified commits an epoch.
func (co *Coordinator) Epoch() int { return co.epoch }

// Aborts returns how many checkpoint cycles were aborted and retried.
func (co *Coordinator) Aborts() int { return co.aborts }

// Config returns the coordinator configuration.
func (co *Coordinator) Config() Config { return co.cfg }

// ScheduleCheckpoint arranges for a checkpoint request at absolute time t.
func (co *Coordinator) ScheduleCheckpoint(t sim.Time) {
	co.k.At(t, co.RequestCheckpoint)
}

// RequestCheckpoint opens a checkpointing cycle now: groups are formed
// (statically or from the observed communication pattern), the schedule is
// broadcast, and the first group's turn begins.
func (co *Coordinator) RequestCheckpoint() {
	if co.active {
		co.k.Fail(fmt.Errorf("cr: overlapping checkpoint cycles"))
		return
	}
	co.active = true
	co.cycle++
	co.requestAt = co.k.Now()
	n := co.job.Size()
	var traffic []map[int]int64
	if co.cfg.Dynamic {
		traffic = make([]map[int]int64, n)
		for i := 0; i < n; i++ {
			traffic[i] = co.job.Rank(i).Traffic()
		}
	}
	co.groups = co.proto.Plan(co.cfg.protocolOptions(n, co.job.Config().LogMessages), traffic)
	co.turn = 0
	co.ready = make(map[int]bool)
	co.saved = make(map[int]bool)
	co.metricsFor(co.cycle) // the cycle's registry exists from request on
	co.bus.Metrics().Counter(obs.LayerCR, "cycles").Inc()
	co.bus.Metrics().Counter(obs.LayerCR, "cycles_"+string(co.proto.Kind())).Inc()
	co.emit("request", fmt.Sprintf("cycle %d%s, groups %v", co.cycle, co.tag, co.groups))
	co.broadcast(msgCkptRequest{cycle: co.cycle, groups: co.groups})
	if !co.proto.Blocking() {
		// Uncoordinated: no turns and no readiness barrier. Every controller
		// heads for its own safe point on the request (interrupting in
		// signal mode, at its own next boundary in polled mode) and reports
		// msgSaved when its write lands.
		return
	}
	if !co.cfg.Polled {
		// Signal mode: group 0 is interrupted immediately; other groups
		// keep computing (passive coordination).
		co.startTurn(0)
	}
	// Polled mode: all ranks quiesce at boundaries first (the controllers
	// self-request safe points on msgCkptRequest); turn 0 begins once every
	// rank has reported ready.
}

func (co *Coordinator) broadcast(payload any) {
	for i := 0; i < co.job.Size(); i++ {
		co.send(i, payload)
	}
}

func (co *Coordinator) sendGroup(group int, payload any) {
	for _, r := range co.groups[group] {
		co.send(r, payload)
	}
}

// send delivers a control message to a rank's endpoint. The rank set is
// fixed at job creation, so a send failure is a simulator invariant
// violation and aborts the run.
func (co *Coordinator) send(rank int, payload any) {
	if err := co.ep.SendOOB(rank, payload); err != nil {
		co.k.Fail(fmt.Errorf("cr: coordinator sending to rank %d: %w", rank, err))
	}
}

func (co *Coordinator) onMsg(src int, payload any) {
	switch m := payload.(type) {
	case msgReady:
		if !co.active || m.cycle != co.cycle || co.turn >= len(co.groups) {
			return
		}
		co.ready[m.rank] = true
		if co.cfg.Polled {
			// Global quiesce barrier: start the first group only when
			// every rank is stopped at a boundary.
			if len(co.ready) == co.job.Size() && co.turn == 0 {
				co.startTurn(0)
			}
			return
		}
		if co.groupCovered(co.ready, co.turn) {
			co.sendGroup(co.turn, msgGo{cycle: co.cycle, group: co.turn})
		}
	case msgSaved:
		if !co.active || m.cycle != co.cycle || co.turn >= len(co.groups) {
			return
		}
		co.saved[m.rank] = true
		if !co.proto.Blocking() {
			// Uncoordinated: there is no turn order; the cycle closes when
			// the last independent write lands. Each snapshot already became
			// durable (per-rank) when its write completed.
			if len(co.saved) == co.job.Size() {
				co.finishCycle()
			}
			return
		}
		if co.groupCovered(co.saved, co.turn) {
			co.emit("group-done", fmt.Sprintf("group %d", co.turn))
			co.broadcast(msgGroupDone{cycle: co.cycle, group: co.turn})
			co.turn++
			if co.turn < len(co.groups) {
				co.startTurn(co.turn)
			} else {
				co.finishCycle()
			}
		}
	case msgWriteFailed:
		co.onWriteFailed(m)
	case msgDrained:
		set := co.drains[m.cycle]
		if set == nil {
			set = make(map[int]bool)
			co.drains[m.cycle] = set
		}
		set[m.rank] = true
		rep := co.repByCycle[m.cycle]
		if rep != nil && len(set) == co.job.Size() {
			co.emit("all-drained", fmt.Sprintf("cycle %d durable", m.cycle))
			co.markComplete(co.epochOf[m.cycle])
			rep.DrainedAt = co.k.Now()
			delete(co.drains, m.cycle)
			delete(co.repByCycle, m.cycle)
			delete(co.epochOf, m.cycle)
		}
	default:
		co.k.Fail(fmt.Errorf("cr: coordinator got unexpected message %T from %d", payload, src))
	}
}

// startTurn announces a group's turn; in polled mode its members are already
// quiesced and receive their go immediately.
func (co *Coordinator) startTurn(turn int) {
	co.emit("turn", fmt.Sprintf("group %d %v", turn, co.groups[turn]))
	co.broadcast(msgTurn{cycle: co.cycle, group: turn})
	if co.cfg.Polled {
		co.sendGroup(turn, msgGo{cycle: co.cycle, group: turn})
	}
}

// markComplete commits an epoch's global checkpoint; a failure means the
// protocol lost or corrupted a snapshot and the simulation result would be
// wrong. MarkComplete re-verifies every member snapshot, so this is the
// commit point of the two-phase protocol. Under a storage hierarchy the
// commit additionally gates on replication degree — every rank's image must
// hold its full copy set at some tier — but never on the central drain,
// which continues in the background. Under message logging the commit is
// also the log garbage-collection point: a blocking restart line is flushed
// and never replays, so every sender may drop what the epoch covers.
func (co *Coordinator) markComplete(epoch int) {
	if co.tiers != nil {
		if err := co.tiers.CheckCommit(epoch); err != nil {
			co.k.Fail(err)
			return
		}
	}
	if err := co.snaps.MarkComplete(epoch); err != nil {
		co.k.Fail(err)
		return
	}
	if co.job.Config().LogMessages {
		for i := 0; i < co.job.Size(); i++ {
			co.job.Rank(i).CommitCheckpoint(epoch)
		}
	}
}

// onWriteFailed aborts the in-progress cycle after a member's snapshot write
// failed: the partial epoch is discarded, every rank rolls back, and the
// checkpoint is retried after a capped exponential backoff, bounded by
// MaxCycleRetries consecutive attempts.
func (co *Coordinator) onWriteFailed(m msgWriteFailed) {
	if !co.active || m.cycle != co.cycle {
		return // stale: the cycle already aborted or completed
	}
	target := co.epoch + 1
	co.aborts++
	co.cycleRetries++
	co.bus.Metrics().Counter(obs.LayerCR, "cycle_aborts").Inc()
	co.emit("cycle-abort", fmt.Sprintf("cycle %d epoch %d: rank %d write failed", co.cycle, target, m.rank))
	if err := co.snaps.Discard(target); err != nil {
		co.k.Fail(err)
		return
	}
	co.broadcast(msgAbort{cycle: co.cycle})
	co.active = false
	if co.cycleRetries > co.cfg.maxCycleRetries() {
		co.k.Fail(fmt.Errorf("cr: checkpoint epoch %d aborted %d consecutive times; giving up",
			target, co.cycleRetries))
		return
	}
	backoff := writeRetryBackoff(co.cycleRetries)
	co.emit("cycle-retry", fmt.Sprintf("epoch %d attempt %d in %v", target, co.cycleRetries+1, backoff))
	co.k.After(backoff, co.RequestCheckpoint)
}

func (co *Coordinator) groupCovered(set map[int]bool, group int) bool {
	for _, r := range co.groups[group] {
		if !set[r] {
			return false
		}
	}
	return true
}

func (co *Coordinator) finishCycle() {
	co.emit("cycle-done", fmt.Sprintf("cycle %d%s", co.cycle, co.tag))
	co.broadcast(msgCycleDone{cycle: co.cycle})
	rep := &CycleReport{
		Cycle:     co.cycle,
		Groups:    co.groups,
		RequestAt: co.requestAt,
		DoneAt:    co.k.Now(),
		metrics:   co.metricsFor(co.cycle),
	}
	co.epoch++
	co.cycleRetries = 0
	if co.cfg.Staged {
		// Durability lags resumption: the global checkpoint completes only
		// when every background drain finishes.
		co.repByCycle[co.cycle] = rep
		co.epochOf[co.cycle] = co.epoch
		if set := co.drains[co.cycle]; len(set) == co.job.Size() {
			co.markComplete(co.epoch)
			rep.DrainedAt = co.k.Now()
			delete(co.drains, co.cycle)
			delete(co.repByCycle, co.cycle)
			delete(co.epochOf, co.cycle)
		}
	} else if co.proto.Blocking() {
		co.markComplete(co.epoch)
	}
	// Non-blocking protocols have no global commit: every member snapshot
	// was marked durable per rank as its own write completed.
	co.reports = append(co.reports, rep)
	co.active = false
	if co.OnCycleDone != nil {
		co.OnCycleDone(rep)
	}
}
