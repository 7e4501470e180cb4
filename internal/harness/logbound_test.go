package harness

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"gbcr/internal/cr"
	"gbcr/internal/cr/protocol"
	"gbcr/internal/sim"
	"gbcr/internal/workload"
)

// logFootprint runs the uncoordinated ring failure-free with a checkpoint
// every interval and reports the largest captured library state over all
// archived snapshots, the peak number of live sender-log entries on any
// rank, and the live heap with the finished cluster (and its whole snapshot
// archive) still reachable.
func logFootprint(t *testing.T, iters int) (maxLib, maxLive int, heap uint64) {
	t.Helper()
	const n = 4
	cfg := protocolCluster(n, protocol.Uncoordinated)
	cfg.CR.Polled = true
	cfg.CR.CaptureState = true
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Ring{N: n, Iters: iters, Chunk: 20 * sim.Millisecond, FootprintMB: 5}
	inst, err := w.Launch(c.Job)
	if err != nil {
		t.Fatal(err)
	}
	ri := inst.(workload.RestartableInstance)
	for i := 0; i < n; i++ {
		i := i
		c.Coord.Controller(i).CaptureFn = func() ([]byte, error) { return ri.Capture(i) }
	}
	const interval = 2 * sim.Second
	c.Coord.ScheduleCheckpoint(interval)
	c.Coord.OnCycleDone = func(*cr.CycleReport) {
		if !c.Job.Finished() {
			c.Coord.ScheduleCheckpoint(c.K.Now() + interval)
		}
	}
	if err := c.K.Run(); err != nil {
		t.Fatal(err)
	}
	store := c.Coord.Snapshots()
	for i := 0; i < n; i++ {
		for e := 1; e <= c.Coord.Controller(i).Epoch(); e++ {
			if s := store.Get(e, i); s != nil && len(s.LibState) > maxLib {
				maxLib = len(s.LibState)
			}
		}
		if p := c.Job.Rank(i).Stats().LogLivePeak; p > maxLive {
			maxLive = p
		}
	}
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	runtime.KeepAlive(c)
	return maxLib, maxLive, sample[0].Value.Uint64()
}

// TestUncoordLogBoundedByInterval: with sender-log garbage collection the
// log, and with it every snapshot's library state, holds about one
// checkpoint interval of traffic, so quadrupling the run length leaves both
// flat. Without the collection both grow linearly with the run (and the
// archive quadratically).
func TestUncoordLogBoundedByInterval(t *testing.T) {
	shortLib, shortLive, _ := logFootprint(t, 600)
	longLib, longLive, heap := logFootprint(t, 2400)
	t.Logf("max libstate %d -> %d B, peak live log entries %d -> %d, live heap %.1f MB",
		shortLib, longLib, shortLive, longLive, float64(heap)/(1<<20))
	if shortLib == 0 || shortLive == 0 {
		t.Fatal("no logged state captured; the run did not exercise the sender log")
	}
	// Equal within a quarter: the bound depends on the interval, not on
	// how many intervals the run lasts.
	if 4*longLib > 5*shortLib {
		t.Errorf("largest library state grew with run length: %d B at 600 iterations, %d B at 2400", shortLib, longLib)
	}
	if 4*longLive > 5*shortLive {
		t.Errorf("peak live log entries grew with run length: %d at 600 iterations, %d at 2400", shortLive, longLive)
	}
	// A coarse ceiling: the whole finished run, snapshot archive included,
	// is a few megabytes.
	const heapCeiling = 64 << 20
	if heap > heapCeiling {
		t.Errorf("live heap %.1f MB with the finished 2400-iteration run reachable, want under %d MB",
			float64(heap)/(1<<20), heapCeiling>>20)
	}
}

// TestSizeOnlyLogHeapBounded runs the logging row of ExtensionLogging
// (CommGroups, 32 ranks in communication groups of 8, 1 MiB messages,
// sender-based logging, one group checkpoint at 2 s) and checks that the
// sender log's modelled volume is large while the live heap stays small:
// the exchange is size-only, so the log records lengths, not copies. With
// real 1 MiB buffers, everything logged after the checkpoint — gigabytes —
// would still be live at the end of the run.
func TestSizeOnlyLogHeapBounded(t *testing.T) {
	const n = 32
	cfg := PaperCluster(n)
	cfg.MPI.LogMessages = true
	cfg.CR.GroupSize = 8
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.CommGroups{
		N: n, CommGroupSize: 8, Iters: 500,
		Chunk: 5 * sim.Millisecond, MsgBytes: 1 << 20, FootprintMB: 180,
	}
	if _, err := w.Launch(c.Job); err != nil {
		t.Fatal(err)
	}
	c.Coord.ScheduleCheckpoint(2 * sim.Second)
	if err := c.K.Run(); err != nil {
		t.Fatal(err)
	}
	var logged int64
	for i := 0; i < n; i++ {
		logged += c.Job.Rank(i).Stats().BytesLogged
	}
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	runtime.KeepAlive(c)
	heap := sample[0].Value.Uint64()
	t.Logf("logged %.2f GB, live heap %.1f MB", float64(logged)/(1<<30), float64(heap)/(1<<20))
	if logged <= 1<<30 {
		t.Fatalf("logged %d bytes, want over 1 GB: the run did not exercise the sender log", logged)
	}
	const heapCeiling = 64 << 20
	if heap > heapCeiling {
		t.Errorf("live heap %.1f MB with the finished logging run reachable, want at most %d MB",
			float64(heap)/(1<<20), heapCeiling>>20)
	}
}
