package cr

import (
	"testing"

	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
)

// Under the blocking protocols with message logging on, the epoch commit is
// the sender-log garbage-collection point: after a group checkpoint commits,
// every sender has dropped what the epoch's snapshots incorporated, so only
// traffic sent after the checkpoint is still logged when the job ends.
func TestEpochCommitTrimsSenderLogs(t *testing.T) {
	const n, iters = 4, 200
	k := sim.NewKernel(1)
	st, err := storage.New(k, storage.Config{AggregateBW: 100 * testMB, ClientBW: 100 * testMB})
	if err != nil {
		t.Fatal(err)
	}
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mpi.DefaultConfig()
	mcfg.LogMessages = true
	j, err := mpi.NewJob(k, f, mcfg, n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.GroupSize = 2
	cfg.DefaultFootprint = 5 * testMB
	co, err := New(k, j, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus()
	j.SetObs(bus)
	j.LaunchAll(func(e *mpi.Env) {
		w := e.World()
		me := e.Rank()
		for i := 0; i < iters; i++ {
			e.Compute(10 * sim.Millisecond)
			e.Sendrecv(w, (me+1)%n, 0, []byte{byte(i)}, (me-1+n)%n, 0)
		}
	})
	co.ScheduleCheckpoint(sim.Second)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !co.Snapshots().Complete(1) {
		t.Fatal("the checkpoint epoch did not commit")
	}
	var logged, live int
	for i := 0; i < n; i++ {
		s := j.Rank(i).Stats()
		logged += s.MsgsLogged
		live += s.LogLive
	}
	trimmed := int(bus.Metrics().Counter(obs.LayerMPI, "log_trimmed").Value())
	if trimmed == 0 || live == 0 {
		t.Fatalf("trimmed %d, live %d of %d logged: want both the pre-checkpoint prefix dropped and the later traffic kept",
			trimmed, live, logged)
	}
	if trimmed+live != logged {
		t.Fatalf("trimmed %d + live %d != logged %d", trimmed, live, logged)
	}
	// The checkpoint lands about halfway through the run, so roughly half
	// of the traffic precedes it.
	if trimmed < logged/4 {
		t.Fatalf("only %d of %d logged messages trimmed at the epoch commit", trimmed, logged)
	}
}
