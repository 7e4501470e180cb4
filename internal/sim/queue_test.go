package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// churnResult is everything one churn run observed, for cross-run and
// invariant comparison.
type churnResult struct {
	fired     []int  // event ids in firing order
	at        []Time // at[id] = scheduled time of event id
	mustSkip  map[int]bool
	handles   []Event // every handle ever issued, for stale-handle checks
	processed uint64
}

// churnRun drives a kernel through a randomized schedule/cancel/reschedule
// workload heavy enough to cycle events through the pool many times:
// callbacks schedule children (some at the current instant, exercising the
// run queue) and cancel still-future events (exercising lazy discard and
// compaction). Event ids are assigned in scheduling order, so ids are also
// sequence order.
func churnRun(t *testing.T, seed int64) churnResult {
	t.Helper()
	k := NewKernel(seed)
	rng := rand.New(rand.NewSource(seed))
	res := churnResult{mustSkip: map[int]bool{}}
	budget := 2000

	type pending struct {
		id int
		ev Event
	}
	var open []pending // candidates for cancellation

	var schedule func(at Time)
	schedule = func(at Time) {
		if budget == 0 {
			return
		}
		budget--
		id := len(res.at)
		res.at = append(res.at, at)
		ev := k.At(at, func() {
			res.fired = append(res.fired, id)
			// Children: sometimes at the current instant (run-queue path),
			// sometimes in the future (heap path).
			for n := rng.Intn(3); n > 0; n-- {
				if rng.Intn(4) == 0 {
					schedule(k.Now())
				} else {
					schedule(k.Now() + Time(1+rng.Intn(40)))
				}
			}
			// Cancel a random still-future event. Only events with at
			// strictly after now are eligible, so a canceled event provably
			// must never fire.
			if len(open) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(open))
				c := open[i]
				if c.ev.Pending() && res.at[c.id] > k.Now() {
					c.ev.Cancel()
					res.mustSkip[c.id] = true
				}
				open[i] = open[len(open)-1]
				open = open[:len(open)-1]
			}
		})
		res.handles = append(res.handles, ev)
		open = append(open, pending{id: id, ev: ev})
	}

	for i := 0; i < 40; i++ {
		schedule(Time(rng.Intn(60)))
	}
	if err := k.Run(); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	res.processed = k.EventsProcessed()
	return res
}

// TestQuickChurnOrdering checks, across random seeds, that the split
// run-queue/heap/pool structure preserves the single-heap contract: firing
// order is exactly (at, submission-order), canceled-in-advance events never
// fire, everything else fires exactly once, and two runs with the same seed
// are identical.
func TestQuickChurnOrdering(t *testing.T) {
	f := func(seed int64) bool {
		a := churnRun(t, seed)

		// Firing order is strictly increasing in (at, id).
		for i := 1; i < len(a.fired); i++ {
			p, c := a.fired[i-1], a.fired[i]
			if a.at[p] > a.at[c] || (a.at[p] == a.at[c] && p >= c) {
				t.Errorf("seed %d: fired %d (at %v) before %d (at %v)",
					seed, p, a.at[p], c, a.at[c])
				return false
			}
		}

		// Fired exactly the non-canceled events, each once.
		firedSet := make(map[int]bool, len(a.fired))
		for _, id := range a.fired {
			if firedSet[id] {
				t.Errorf("seed %d: event %d fired twice", seed, id)
				return false
			}
			firedSet[id] = true
			if a.mustSkip[id] {
				t.Errorf("seed %d: canceled event %d fired", seed, id)
				return false
			}
		}
		if len(a.fired)+len(a.mustSkip) != len(a.at) {
			t.Errorf("seed %d: %d fired + %d canceled != %d scheduled",
				seed, len(a.fired), len(a.mustSkip), len(a.at))
			return false
		}
		if a.processed != uint64(len(a.fired)) {
			t.Errorf("seed %d: EventsProcessed %d, fired %d",
				seed, a.processed, len(a.fired))
			return false
		}

		// Determinism: an identical second run fires the same sequence.
		b := churnRun(t, seed)
		if len(a.fired) != len(b.fired) {
			t.Errorf("seed %d: runs fired %d vs %d events",
				seed, len(a.fired), len(b.fired))
			return false
		}
		for i := range a.fired {
			if a.fired[i] != b.fired[i] {
				t.Errorf("seed %d: runs diverge at firing %d: %d vs %d",
					seed, i, a.fired[i], b.fired[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStaleHandleSafety: handles that outlive their event — including ones
// whose storage was recycled for unrelated later events — are inert.
// Cancel on them is a no-op that cannot kill the pool's current tenant.
func TestStaleHandleSafety(t *testing.T) {
	res := churnRun(t, 7)

	// After a drained run every handle is settled: nothing reports pending,
	// and Cancel / Fired / Canceled / Time neither panic nor disturb anything.
	for _, h := range res.handles {
		if h.Pending() {
			t.Fatalf("handle pending after the queue drained")
		}
		h.Cancel()
		_ = h.Fired()
		_ = h.Canceled()
		_ = h.Time()
	}

	// Run a batch to completion to populate the free list, keep the settled
	// handles, schedule a fresh batch (which reuses the pooled events), and
	// cancel every stale handle: the fresh batch must be untouched.
	k2 := NewKernel(11)
	var stale []Event
	for i := 0; i < 100; i++ {
		stale = append(stale, k2.After(Time(i+1), nop))
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	fired := 0
	var fresh []Event
	for i := 0; i < 100; i++ {
		fresh = append(fresh, k2.After(Time(i+1), func() { fired++ }))
	}
	for _, h := range stale {
		if !h.Fired() {
			t.Fatalf("settled handle does not report fired")
		}
		h.Cancel() // must not cancel the pooled event's new life
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("stale Cancel killed live events: %d of 100 fired", fired)
	}
	for _, h := range fresh {
		if h.Pending() {
			t.Fatalf("fresh handle still pending after run")
		}
	}
}

// TestCancelHeavyCompaction cancels most of a large heap and checks that
// compaction reclaims the space immediately while the survivors still fire
// in order.
func TestCancelHeavyCompaction(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	record := func() { fired = append(fired, k.Now()) }
	var handles []Event
	n := 1024
	for i := 0; i < n; i++ {
		handles = append(handles, k.At(Time(1000+i), record))
	}
	for i, h := range handles {
		if i%4 != 0 {
			h.Cancel()
		}
	}
	// Canceling 3/4 of the heap crosses the one-half compaction threshold,
	// so at least one sweep must have run, and the sweeps maintain the
	// invariant that canceled events never outnumber live ones.
	if got := k.q.len(); got > n/2 {
		t.Fatalf("queue holds %d events after canceling 3/4 of %d; compaction did not run", got, n)
	}
	if k.q.nCanceled*2 > k.q.len() && k.q.len() >= compactMin {
		t.Fatalf("nCanceled = %d of %d queued: compaction invariant violated", k.q.nCanceled, k.q.len())
	}
	k.At(2500, record)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := n / 4
	if len(fired) != want+1 { // +1 for the 2500 marker
		t.Fatalf("fired %d events, want %d", len(fired), want+1)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatalf("events fired out of order after compaction: %v then %v", fired[i-1], fired[i])
		}
	}
}

// TestRunqOrderAgainstHeap pins the merge rule between the two structures:
// an event scheduled at the current instant (run queue) and an event that was
// scheduled earlier for the same instant (heap) fire in seq order, exactly
// as a single heap would have fired them.
func TestRunqOrderAgainstHeap(t *testing.T) {
	k := NewKernel(1)
	var order []string
	mark := func(s string) func() {
		return func() { order = append(order, s) }
	}
	k.At(10, mark("A")) // seq 1, heap
	k.At(10, func() {   // seq 2, heap
		order = append(order, "B")
		// now = 10: C takes the run-queue path, but D (seq 3) is still in
		// the heap for the same instant with a lower seq — the merge must
		// fire D first, exactly as a single heap would have.
		k.At(10, mark("C")) // seq 4, run queue
	})
	k.At(10, mark("D")) // seq 3, heap
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "A B D C"
	got := ""
	for i, s := range order {
		if i > 0 {
			got += " "
		}
		got += s
	}
	if got != want {
		t.Fatalf("fired %q, want %q", got, want)
	}
}
