package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// Size-only payloads must be indistinguishable from the same number of real
// bytes in everything the simulation models — protocol choice, wire sizes,
// buffering and logging counters, simulated time, captured library state —
// while the receiver gets nil data and the length in its Status.

// exchange is what each side saw in runExchange.
type exchange struct {
	finish     sim.Time
	stats      [2]RankStats
	probed     Status
	probeOK    bool
	got0, got1 []byte
	st0, st1   Status
}

// runExchange runs a two-rank job in which rank 0 sends an n-byte message
// to rank 1 (size-only or real bytes) inside a Sendrecv, and rank 1 answers
// with real bytes after probing.
func runExchange(t *testing.T, n int64, sizeOnlySend bool) exchange {
	t.Helper()
	k, j := newTestJob(t, 2)
	var x exchange
	reply := []byte("real reply")
	j.Launch(0, func(e *Env) {
		w := e.World()
		if sizeOnlySend {
			x.st0 = e.SendrecvN(w, 1, 5, n, 1, 6)
			return
		}
		x.got0, x.st0 = e.Sendrecv(w, 1, 5, make([]byte, n), 1, 6)
		x.got0 = append([]byte(nil), x.got0...)
	})
	j.Launch(1, func(e *Env) {
		w := e.World()
		e.Compute(10 * sim.Millisecond) // let the message (or its RTS) arrive unexpected
		x.probeOK, x.probed = e.Iprobe(w, 0, 5)
		x.got1, x.st1 = e.Sendrecv(w, 0, 6, reply, 0, 5)
	})
	run(t, k)
	x.finish = j.FinishTime()
	x.stats = [2]RankStats{j.Rank(0).Stats(), j.Rank(1).Stats()}
	return x
}

func TestSizeOnlyEagerAndRendezvousRoundTrip(t *testing.T) {
	for _, n := range []int64{0, 1024, 8 << 10, 1 << 20} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			so := runExchange(t, n, true)
			rb := runExchange(t, n, false)
			if so.got1 != nil {
				t.Fatalf("size-only receive returned %d bytes of data, want nil", len(so.got1))
			}
			if rb.got1 == nil && n > 0 {
				t.Fatal("real-byte receive returned nil data")
			}
			if so.st1.Size != n || so.st1.Source != 0 || so.st1.Tag != 5 {
				t.Fatalf("size-only receive status %+v, want size %d from 0 tag 5", so.st1, n)
			}
			if !so.probeOK || so.probed.Size != n {
				t.Fatalf("Iprobe of a size-only message: ok=%v %+v, want size %d", so.probeOK, so.probed, n)
			}
			if string(so.got0) != "" || so.st0.Size != int64(len("real reply")) {
				t.Fatalf("SendrecvN status %+v", so.st0)
			}
			if string(rb.got0) != "real reply" {
				t.Fatalf("real reply corrupted: %q", rb.got0)
			}
			if so.finish != rb.finish {
				t.Fatalf("size-only run finished at %v, real bytes at %v", so.finish, rb.finish)
			}
			if so.stats != rb.stats {
				t.Fatalf("stats differ:\nsize-only %+v\nreal      %+v", so.stats, rb.stats)
			}
			eager := n <= DefaultConfig().EagerThreshold
			if s := so.stats[0]; (s.EagerSent == 1) != eager || (s.RendezvousSent == 1) == eager {
				t.Fatalf("protocol selection for %d bytes: %+v", n, s)
			}
		})
	}
}

func TestBcastNMatchesBcast(t *testing.T) {
	const n = 5
	for _, size := range []int64{0, 4 << 10, 1 << 20} {
		for _, root := range []int{0, 3} {
			runBcast := func(sizeOnly bool) (sim.Time, []int64) {
				k, j := newTestJob(t, n)
				got := make([]int64, n)
				j.LaunchAll(func(e *Env) {
					if sizeOnly {
						in := int64(-1) // only root's length is significant
						if e.Rank() == root {
							in = size
						}
						got[e.Rank()] = e.BcastN(e.World(), root, in)
						return
					}
					got[e.Rank()] = int64(len(e.Bcast(e.World(), root, make([]byte, size))))
				})
				run(t, k)
				return j.FinishTime(), got
			}
			soEnd, soGot := runBcast(true)
			rbEnd, _ := runBcast(false)
			for me, g := range soGot {
				if g != size {
					t.Fatalf("size=%d root=%d: rank %d got length %d", size, root, me, g)
				}
			}
			if soEnd != rbEnd {
				t.Fatalf("size=%d root=%d: BcastN finished at %v, Bcast at %v", size, root, soEnd, rbEnd)
			}
		}
	}
}

// gatedExchange gates rank 0's sends to rank 1 until 1 s, then releases
// them; rank 0 sends an n-byte message inside a Sendrecv.
func gatedExchange(t *testing.T, n int64, sizeOnlySend bool) (recvAt sim.Time, deferred int, s RankStats) {
	t.Helper()
	k, j := newTestJob(t, 2)
	h := &spHooks{gate: map[int]bool{1: true}}
	j.Rank(0).SetHooks(h)
	j.Launch(0, func(e *Env) {
		w := e.World()
		if sizeOnlySend {
			e.SendrecvN(w, 1, 0, n, 1, 1)
		} else {
			e.Sendrecv(w, 1, 0, make([]byte, n), 1, 1)
		}
	})
	j.Launch(1, func(e *Env) {
		e.Sendrecv(e.World(), 0, 1, nil, 0, 0)
		recvAt = e.Now()
	})
	k.At(sim.Second/2, func() { deferred = j.Rank(0).OutboxLen(1) })
	k.At(sim.Second, func() {
		h.gate[1] = false
		j.Rank(0).ReleaseDst(1)
	})
	run(t, k)
	if got := j.Rank(0).OutboxLen(1); got != 0 {
		t.Fatalf("outbox holds %d packets after the drain", got)
	}
	return recvAt, deferred, j.Rank(0).Stats()
}

func TestSizeOnlyDeferredWhileGated(t *testing.T) {
	for _, n := range []int64{1024, 1 << 20} {
		soAt, soDeferred, so := gatedExchange(t, n, true)
		rbAt, rbDeferred, rb := gatedExchange(t, n, false)
		if soAt < sim.Second {
			t.Fatalf("%d bytes: gated size-only message leaked at %v", n, soAt)
		}
		if soDeferred != 1 {
			t.Fatalf("%d bytes: %d packets deferred while gated, want 1", n, soDeferred)
		}
		if soAt != rbAt || soDeferred != rbDeferred || so != rb {
			t.Fatalf("%d bytes: size-only (at %v, %d deferred, %+v) differs from real bytes (at %v, %d deferred, %+v)",
				n, soAt, soDeferred, so, rbAt, rbDeferred, rb)
		}
		if n <= DefaultConfig().EagerThreshold {
			if so.MsgsBuffered != 1 || so.BytesBuffered != n {
				t.Fatalf("message buffering of a size-only message: %+v", so)
			}
		} else if so.ReqsBuffered == 0 {
			t.Fatalf("request buffering of a size-only message: %+v", so)
		}
	}
}

func TestLoggedSizeOnlySendsReplay(t *testing.T) {
	const msgs, size = 3, 2048
	k, j := newJobCfg(t, 2, loggingConfig())
	j.LaunchAll(func(e *Env) {
		w := e.World()
		peer := 1 - e.Rank()
		for i := 0; i < msgs; i++ {
			e.SendrecvN(w, peer, 0, size, peer, 0)
		}
	})
	run(t, k)
	s0 := j.Rank(0)
	if st := s0.Stats(); st.MsgsLogged != msgs || st.BytesLogged != msgs*size {
		t.Fatalf("logging counters %+v, want %d messages / %d bytes", st, msgs, msgs*size)
	}
	for _, le := range s0.msgLog[1] {
		if le.Body.data != nil || le.Body.size != size {
			t.Fatalf("log entry holds %d bytes of data (size %d), want size-only %d", len(le.Body.data), le.Body.size, size)
		}
	}
	// Roll rank 1 back to before it saw anything: the log replays every
	// message, still size-only.
	d := j.Rank(1)
	d.recvSeqOf = map[int]int64{}
	d.unexpected = nil
	n, err := j.ReplayLogs()
	if err != nil || n != msgs {
		t.Fatalf("ReplayLogs = %d, %v; want %d", n, err, msgs)
	}
	for i, m := range d.unexpected {
		if !m.eager || m.body.data != nil || m.body.size != size || m.srcWorld != 0 {
			t.Fatalf("replayed message %d = %+v, want a size-only %d-byte eager delivery from 0", i, m, size)
		}
	}
}

// queuedState leaves eager messages queued on both sides — unexpected at
// rank 1, deferred in rank 0's outbox toward the gated rank 2 — and returns
// the two ranks' captured library states. send posts one n-byte message.
func queuedState(t *testing.T, cfg Config, send func(e *Env, w *Comm, dst int, n int64)) (lib0, lib1 []byte) {
	t.Helper()
	k, j := newJobCfg(t, 3, cfg)
	j.Rank(0).SetHooks(&spHooks{gate: map[int]bool{2: true}})
	j.Launch(0, func(e *Env) {
		w := e.World()
		for _, n := range []int64{0, 100, 4 << 10} {
			send(e, w, 1, n)
			send(e, w, 2, n)
		}
	})
	j.Launch(1, func(e *Env) { e.World() })
	j.Launch(2, func(e *Env) { e.World() })
	run(t, k)
	var err error
	if lib0, err = j.Rank(0).CaptureLibState(); err != nil {
		t.Fatal(err)
	}
	if lib1, err = j.Rank(1).CaptureLibState(); err != nil {
		t.Fatal(err)
	}
	return lib0, lib1
}

// A captured size-only message is encoded exactly like n zero bytes, so
// snapshot sizes and storage timing do not depend on the payload kind.
func TestCaptureLibStateSizeOnlyMatchesZeroBytes(t *testing.T) {
	sizeOnlySend := func(e *Env, w *Comm, dst int, n int64) {
		e.enter()
		e.isendInternal(w, dst, 0, sizeOnly(n))
		e.exit()
	}
	zeroSend := func(e *Env, w *Comm, dst int, n int64) {
		e.Isend(w, dst, 0, make([]byte, n))
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"v1", DefaultConfig()}, {"v2", loggingConfig()}} {
		so0, so1 := queuedState(t, tc.cfg, sizeOnlySend)
		zb0, zb1 := queuedState(t, tc.cfg, zeroSend)
		if !bytes.Equal(so0, zb0) || !bytes.Equal(so1, zb1) {
			t.Fatalf("%s: size-only capture differs from zero bytes (rank 0: %d vs %d B, rank 1: %d vs %d B)",
				tc.name, len(so0), len(zb0), len(so1), len(zb1))
		}
		if v2 := bytes.HasPrefix(so0, []byte(libStateV2Magic)); v2 != (tc.name == "v2") {
			t.Fatalf("%s: wrong capture format", tc.name)
		}
	}
}

// Size-only traffic interleaved with collectives and point-to-point
// messages whose values are read: every value still arrives intact.
func TestMixedSizeOnlyAndRealBytes(t *testing.T) {
	const n = 4
	k, j := newTestJob(t, n)
	errs := make([]string, n)
	j.LaunchAll(func(e *Env) {
		w := e.World()
		me := e.Rank()
		right, left := (me+1)%n, (me+n-1)%n
		big := make([]byte, 64<<10) // rendezvous-sized real bytes
		for i := range big {
			big[i] = byte(i*7 + me)
		}
		for it := 0; it < 3; it++ {
			if st := e.SendrecvN(w, right, 1, 1<<20, left, 1); st.Size != 1<<20 {
				errs[me] = fmt.Sprintf("SendrecvN size %d", st.Size)
			}
			sum := e.AllreduceF64(w, []float64{float64(me + it)}, OpSum)
			if want := float64(n*(n-1)/2 + n*it); sum[0] != want {
				errs[me] = fmt.Sprintf("allreduce %v, want %v", sum[0], want)
			}
			got, _ := e.Sendrecv(w, right, 2, big, left, 2)
			for i, b := range got {
				if b != byte(i*7+left) {
					errs[me] = fmt.Sprintf("rendezvous byte %d = %d", i, b)
					break
				}
			}
			e.BcastN(w, it%n, 8<<10)
			if v := BytesToI64(e.Bcast(w, 1, I64ToBytes([]int64{int64(42 + it)}))); v[0] != int64(42+it) {
				errs[me] = fmt.Sprintf("bcast value %d", v[0])
			}
			small, _ := e.Sendrecv(w, left, 3, []byte{byte(me)}, right, 3)
			if len(small) != 1 || small[0] != byte(right) {
				errs[me] = fmt.Sprintf("eager value %v from %d", small, right)
			}
			e.Barrier(w)
		}
	})
	run(t, k)
	for me, msg := range errs {
		if msg != "" {
			t.Errorf("rank %d: %s", me, msg)
		}
	}
}

// TestEagerSendrecvRoundZeroAlloc extends BenchmarkEmitDisabled's contract
// (internal/obs) to the library's own emit sites: with no sink attached,
// a steady-state round of size-only eager Sendrecv — matching, the eager
// protocol, the fabric, park and wake — allocates nothing, so the
// protocol's trace details and park reasons are not built per message.
func TestEagerSendrecvRoundZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		bus  *obs.Bus
	}{{"nil bus", nil}, {"metrics only", obs.NewBus()}} {
		t.Run(tc.name, func(t *testing.T) {
			k, j := newTestJob(t, 2)
			j.SetObs(tc.bus)
			const period = sim.Millisecond
			j.LaunchAll(func(e *Env) {
				w := e.World()
				peer := 1 - e.Rank()
				for {
					e.Compute(period)
					e.SendrecvN(w, peer, 1, 1024, peer, 1)
				}
			})
			round := func() {
				if err := k.RunUntil(k.Now() + period); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 16; i++ { // warm the free lists and queues
				round()
			}
			if avg := testing.AllocsPerRun(200, round); avg != 0 {
				t.Fatalf("eager Sendrecv round allocates %v/op, want 0", avg)
			}
			k.Shutdown()
		})
	}
}
