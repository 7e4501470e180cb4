package cr

import (
	"strings"
	"testing"

	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// TestCycleAbortRetryCommit is the two-phase-commit hardening test: a
// storage outage mid-write aborts the group cycle (partial epoch discarded,
// all ranks roll back and resume), the coordinator retries after backoff,
// and once storage returns the retried cycle commits the same target epoch.
func TestCycleAbortRetryCommit(t *testing.T) {
	const n = 4
	cfg := DefaultConfig()
	cfg.DefaultFootprint = 100 * testMB
	c := newCluster(t, n, cfg)
	mem := &obs.MemorySink{}
	c.co.SetObs(obs.NewBus(mem))
	c.j.LaunchAll(computeLoop(60, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(2 * sim.Second)
	// The write phase spans roughly 2s..6s (4 ranks x 100 MB at 100 MB/s);
	// pull storage out from under it, then bring it back.
	c.k.At(2500*sim.Millisecond, func() { c.st.SetAvailability(0) })
	c.k.At(3500*sim.Millisecond, func() { c.st.SetAvailability(1) })
	runSim(t, c.k)

	if c.co.Aborts() == 0 {
		t.Fatal("outage mid-write caused no cycle abort")
	}
	if c.co.Epoch() != 1 {
		t.Fatalf("epoch = %d, want 1 (retried cycle commits the same target epoch)", c.co.Epoch())
	}
	if !c.co.Snapshots().Complete(1) {
		t.Fatal("epoch 1 never committed")
	}
	if _, snaps := c.co.Snapshots().Latest(); len(snaps) != n {
		t.Fatalf("committed epoch holds %d snapshots, want %d", len(snaps), n)
	}
	// Aborted cycles yield no report; only the successful retry does.
	if reps := c.reports(t); len(reps) != 1 {
		t.Fatalf("reports: %d, want 1", len(reps))
	}
	var abortSeen, retrySeen bool
	for _, e := range mem.ByLayer(obs.LayerCR) {
		switch e.What {
		case "cycle-abort":
			abortSeen = true
		case "cycle-retry":
			retrySeen = true
		}
	}
	if !abortSeen || !retrySeen {
		t.Fatalf("timeline missing abort/retry events: abort=%v retry=%v", abortSeen, retrySeen)
	}
}

// TestCycleAbortBounded: with storage gone for good, the coordinator retries
// a bounded number of times and then fails the run instead of spinning.
func TestCycleAbortBounded(t *testing.T) {
	const n = 2
	cfg := DefaultConfig()
	cfg.DefaultFootprint = 10 * testMB
	cfg.MaxCycleRetries = 3
	c := newCluster(t, n, cfg)
	c.j.LaunchAll(computeLoop(30, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	c.k.At(1100*sim.Millisecond, func() { c.st.SetAvailability(0) })
	err := c.k.Run()
	if err == nil {
		t.Fatal("expected the run to fail after bounded cycle retries")
	}
	if !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("error %q does not report the retry bound", err)
	}
	if c.co.Epoch() != 0 {
		t.Fatalf("epoch = %d, want 0 (nothing committed during the outage)", c.co.Epoch())
	}
}

// TestPhaseHookObservesProtocolPhases: the hook the fault injector uses sees
// every rank pass through sync, teardown, write, and resume with the epoch
// under construction.
func TestPhaseHookObservesProtocolPhases(t *testing.T) {
	const n = 4
	cfg := DefaultConfig()
	cfg.GroupSize = 2
	cfg.DefaultFootprint = 10 * testMB
	c := newCluster(t, n, cfg)
	seen := make(map[int]map[string]bool)
	c.co.PhaseHook = func(rank int, phase string, epoch int) {
		if epoch != 1 {
			t.Errorf("rank %d phase %s reported epoch %d, want 1", rank, phase, epoch)
		}
		if seen[rank] == nil {
			seen[rank] = make(map[string]bool)
		}
		seen[rank][phase] = true
	}
	c.j.LaunchAll(computeLoop(30, 100*sim.Millisecond))
	c.co.ScheduleCheckpoint(sim.Second)
	runSim(t, c.k)
	for r := 0; r < n; r++ {
		for _, phase := range []string{"sync", "teardown", "write", "resume"} {
			if !seen[r][phase] {
				t.Fatalf("rank %d never reported phase %q", r, phase)
			}
		}
	}
}

// TestFinishedRankAbortRetryWritesOnce: a rank whose body already returned
// checkpoints inline, driven by its connection events. When the cycle aborts
// before that rank writes, only the retried cycle may drive its checkpoint:
// a step left over from the aborted cycle would write a second epoch-1
// snapshot for the rank and fail the run.
func TestFinishedRankAbortRetryWritesOnce(t *testing.T) {
	const n = 4
	cfg := DefaultConfig()
	cfg.GroupSize = 2
	cfg.Polled = true
	cfg.DefaultFootprint = 20 * testMB
	c := newCluster(t, n, cfg)
	polledLoop := func(e *mpi.Env) {
		for i := 0; i < 40; i++ {
			e.Compute(100 * sim.Millisecond)
			e.MaybeCheckpoint()
		}
	}
	// Rank 3 leaves a connection to rank 2 behind, so its inline checkpoint
	// tears one down, then finishes long before the request.
	c.j.Launch(3, func(e *mpi.Env) {
		e.Send(e.World(), 2, 0, []byte{1})
		e.Compute(100 * sim.Millisecond)
	})
	c.j.Launch(2, func(e *mpi.Env) {
		e.Recv(e.World(), 3, 0)
		polledLoop(e)
	})
	c.j.Launch(0, polledLoop)
	c.j.Launch(1, polledLoop)
	c.co.ScheduleCheckpoint(sim.Second)
	c.k.At(1300*sim.Millisecond, func() { c.st.SetAvailability(0) })
	c.k.At(2000*sim.Millisecond, func() { c.st.SetAvailability(1) })
	runSim(t, c.k)
	if c.co.Aborts() == 0 {
		t.Fatal("outage mid-cycle caused no abort")
	}
	if !c.co.Snapshots().Complete(1) {
		t.Fatal("epoch 1 never committed")
	}
}
