package mpi

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"gbcr/internal/ib"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// newJobCfg builds an n-rank job with the given library configuration.
func newJobCfg(t testing.TB, n int, cfg Config) (*sim.Kernel, *Job) {
	t.Helper()
	k := sim.NewKernel(1)
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJob(k, f, cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return k, j
}

func loggingConfig() Config {
	cfg := DefaultConfig()
	cfg.LogMessages = true
	return cfg
}

// pingLog runs a 3-rank job: rank 0 sends `sends` eager messages to rank 1
// (and one to rank 2), rank 1 receives the first recvd of them, and every
// rank captures its library state at the end. mark, when positive, has
// rank 1 record its watermark under that id after its receives.
func pingLog(t testing.TB, cfg Config, sends, recvd, mark int) (*Job, [][]byte) {
	t.Helper()
	k, j := newJobCfg(t, 3, cfg)
	libs := make([][]byte, 3)
	capture := func(e *Env) {
		lib, err := e.RankState().CaptureLibState()
		if err != nil {
			t.Error(err)
		}
		libs[e.Rank()] = lib
	}
	j.Launch(0, func(e *Env) {
		w := e.World()
		for i := 0; i < sends; i++ {
			e.Send(w, 1, 0, I64ToBytes([]int64{int64(i)}))
		}
		e.Send(w, 2, 0, []byte("x"))
		e.Compute(sim.Millisecond)
		capture(e)
	})
	j.Launch(1, func(e *Env) {
		w := e.World()
		for i := 0; i < recvd; i++ {
			e.Recv(w, 0, 0)
		}
		if mark > 0 {
			e.RankState().MarkCheckpoint(mark)
		}
		e.Compute(sim.Millisecond)
		capture(e)
	})
	j.Launch(2, func(e *Env) {
		e.Recv(e.World(), 0, 0)
		capture(e)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return j, libs
}

func TestCommitCheckpointTrimsSenderLog(t *testing.T) {
	k, j := newJobCfg(t, 2, loggingConfig())
	bus := obs.NewBus()
	j.SetObs(bus)
	var before, after RankStats
	j.Launch(0, func(e *Env) {
		w := e.World()
		for i := 0; i < 6; i++ {
			e.Send(w, 1, 0, []byte{byte(i)})
		}
		e.Recv(w, 1, 1) // rank 1 has committed its checkpoint
		for i := 6; i < 10; i++ {
			e.Send(w, 1, 0, []byte{byte(i)})
		}
		after = e.RankState().Stats()
	})
	j.Launch(1, func(e *Env) {
		w := e.World()
		for i := 0; i < 6; i++ {
			e.Recv(w, 0, 0)
		}
		r := e.RankState()
		r.MarkCheckpoint(1)
		before = j.Rank(0).Stats()
		r.CommitCheckpoint(1)
		e.Send(w, 0, 1, nil)
		for i := 6; i < 10; i++ {
			e.Recv(w, 0, 0)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if before.LogLive != 6 {
		t.Fatalf("live entries before commit = %d, want 6", before.LogLive)
	}
	if after.LogLive != 4 || after.LogLivePeak != 6 {
		t.Fatalf("after commit: live %d peak %d, want 4 and 6", after.LogLive, after.LogLivePeak)
	}
	if after.MsgsLogged != 10 {
		t.Fatalf("MsgsLogged = %d, want the cumulative 10", after.MsgsLogged)
	}
	s := j.Rank(0)
	if got := s.msgLog[1]; len(got) != 4 || got[0].Seq != 7 {
		t.Fatalf("live log = %+v, want seqs 7..10", got)
	}
	if s.logFloor[1] != 6 {
		t.Fatalf("floor = %d, want 6", s.logFloor[1])
	}
	if n := bus.Metrics().Counter(obs.LayerMPI, "log_trimmed").Value(); n != 6 {
		t.Fatalf("log_trimmed = %d, want 6", n)
	}
	if len(j.Rank(1).marks) != 0 {
		t.Fatalf("committed watermark still held: %+v", j.Rank(1).marks)
	}
}

// A partial trim copies the live suffix out, so the dropped prefix (and its
// payloads) is no longer reachable through the slice's backing array.
func TestTrimLogCopiesLiveSuffix(t *testing.T) {
	_, j := newJobCfg(t, 2, loggingConfig())
	r := j.Rank(0)
	for seq := int64(1); seq <= 10; seq++ {
		r.appendLog(1, logEntry{Seq: seq, Body: bytesPayload(make([]byte, 8))})
	}
	r.trimLog(1, 6)
	got := r.msgLog[1]
	if len(got) != 4 || cap(got) != 4 || got[0].Seq != 7 {
		t.Fatalf("after trim: len %d cap %d first %d, want a fresh 4-entry slice from seq 7",
			len(got), cap(got), got[0].Seq)
	}
	r.trimLog(1, 3) // behind the floor: no-op
	if r.logFloor[1] != 6 || len(r.msgLog[1]) != 4 {
		t.Fatalf("stale trim moved the floor to %d", r.logFloor[1])
	}
	r.appendLog(1, logEntry{Seq: 5}) // a re-send already covered: not retained
	if len(r.msgLog[1]) != 4 || r.Stats().LogLive != 4 {
		t.Fatalf("re-send below the floor was retained")
	}
	r.trimLog(1, 10)
	if _, ok := r.msgLog[1]; ok || r.Stats().LogLive != 0 {
		t.Fatalf("full trim left %d entries", len(r.msgLog[1]))
	}
}

func TestMarkCheckpointNoOpWithoutLogging(t *testing.T) {
	j, _ := pingLog(t, DefaultConfig(), 3, 3, 1)
	if len(j.Rank(1).marks) != 0 {
		t.Fatal("a watermark was recorded with logging off")
	}
	j.Rank(1).CommitCheckpoint(1)
	if len(j.Rank(0).logFloor) != 0 {
		t.Fatal("a commit trimmed with logging off")
	}
}

// A snapshot taken after a trim carries only the live suffix and its floor;
// restoring it on a fresh job reproduces both, and replay to a receiver
// restored behind the floor is a gap, not a silent skip.
func TestTrimmedSnapshotRestoreAndReplayGap(t *testing.T) {
	cfg := loggingConfig()
	j, _ := pingLog(t, cfg, 8, 8, 1)
	j.Rank(1).CommitCheckpoint(1)
	lib, err := j.Rank(0).captureLibStateV2()
	if err != nil {
		t.Fatal(err)
	}
	var st libStateV2
	if err := gob.NewDecoder(bytes.NewReader(lib[len(libStateV2Magic):])).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, le := range st.Log {
		if le.Dst == 1 {
			t.Fatalf("trimmed entry to rank 1 captured: seq %d", le.Seq)
		}
	}
	if len(st.Floor) != 1 || st.Floor[0] != (seqEntry{Peer: 1, Seq: 8}) {
		t.Fatalf("floors = %+v, want rank 1 through 8", st.Floor)
	}

	// Sender restored with the trimmed log, receiver from scratch: the
	// receiver needs seqs 1..8 and nobody has them.
	_, j2 := newJobCfg(t, 3, cfg)
	if err := j2.Rank(0).RestoreLibState(lib); err != nil {
		t.Fatal(err)
	}
	if got := j2.Rank(0).logFloor[1]; got != 8 {
		t.Fatalf("restored floor = %d, want 8", got)
	}
	if _, err := j2.ReplayLogs(); err == nil || !strings.Contains(err.Error(), "replay gap") {
		t.Fatalf("replay behind the floor: err = %v, want a gap", err)
	}
	if got, err := RollbackSenders([][]byte{lib, nil, nil}); err != nil || len(got) != 1 || got[0] != 0 {
		t.Fatalf("RollbackSenders = %v, %v; want [0]", got, err)
	}
}

func TestRollbackSendersConsistentLine(t *testing.T) {
	_, libs := pingLog(t, loggingConfig(), 5, 3, 0)
	if got, err := RollbackSenders(libs); err != nil || len(got) != 0 {
		t.Fatalf("untrimmed line: RollbackSenders = %v, %v; want none", got, err)
	}
	if got, err := RollbackSenders([][]byte{libs[0], nil, nil}); err != nil || len(got) != 0 {
		t.Fatalf("untrimmed sender ahead of scratch receivers: %v, %v; want none", got, err)
	}
	if _, err := RollbackSenders([][]byte{[]byte(libStateV2Magic + "junk"), nil, nil}); err == nil {
		t.Fatal("undecodable state accepted")
	}
}

// Replaying a consistent mixed line injects exactly the receiver's gap.
func TestReplayLogsInjectsLiveSuffix(t *testing.T) {
	cfg := loggingConfig()
	_, libs := pingLog(t, cfg, 6, 2, 0)
	_, j := newJobCfg(t, 3, cfg)
	for i, lib := range libs {
		if err := j.Rank(i).RestoreLibState(lib); err != nil {
			t.Fatal(err)
		}
	}
	n, err := j.ReplayLogs()
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 consumed 2 of 6, but the other 4 had arrived into its
	// unexpected queue, which its state captures: nothing is missing.
	if n != 0 {
		t.Fatalf("injected %d, want 0 (every receiver had incorporated everything)", n)
	}
	_, j = newJobCfg(t, 3, cfg)
	if err := j.Rank(0).RestoreLibState(libs[0]); err != nil {
		t.Fatal(err)
	}
	if n, err = j.ReplayLogs(); err != nil || n != 7 {
		t.Fatalf("replay to scratch receivers: %d, %v; want all 7 logged sends", n, err)
	}
}

// encodeV2 builds a v2 library-state blob.
func encodeV2(t testing.TB, st libStateV2) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(libStateV2Magic)
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Regression: out-of-range or self peers used to restore without error and
// then panic in ReplayLogs with an index out of range.
func TestRestoreLibStateRejectsBadPeers(t *testing.T) {
	sent := []seqEntry{{Peer: 1, Seq: 3}}
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(libState{Outbox: []savedOut{{Dst: 99}}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		blob []byte
	}{
		{"v1 outbox dst 99", v1.Bytes()},
		{"v2 outbox dst 99", encodeV2(t, libStateV2{Outbox: []savedOutV2{{Dst: 99, Seq: 1}}})},
		{"v2 log dst -3", encodeV2(t, libStateV2{SendSeq: sent, Log: []savedLog{{Dst: -3, Seq: 1}}})},
		{"v2 log to self", encodeV2(t, libStateV2{SendSeq: sent, Log: []savedLog{{Dst: 0, Seq: 1}}})},
		{"v2 recv peer 3", encodeV2(t, libStateV2{RecvSeq: []seqEntry{{Peer: 3, Seq: 1}}})},
		{"v2 floor peer -1", encodeV2(t, libStateV2{Floor: []seqEntry{{Peer: -1, Seq: 1}}})},
		{"v2 unexpected src 7", encodeV2(t, libStateV2{Unexpected: []savedMsg{{SrcWorld: 7}}})},
		{"v2 negative send", encodeV2(t, libStateV2{SendSeq: []seqEntry{{Peer: 1, Seq: -2}}})},
		{"v2 log seq zero", encodeV2(t, libStateV2{SendSeq: sent, Log: []savedLog{{Dst: 1, Seq: 0}}})},
		{"v2 log not ascending", encodeV2(t, libStateV2{SendSeq: sent, Log: []savedLog{{Dst: 1, Seq: 2}, {Dst: 1, Seq: 2}}})},
		{"v2 log at floor", encodeV2(t, libStateV2{SendSeq: sent, Floor: []seqEntry{{Peer: 1, Seq: 2}}, Log: []savedLog{{Dst: 1, Seq: 2}}})},
		{"v2 log beyond last sent", encodeV2(t, libStateV2{SendSeq: sent, Log: []savedLog{{Dst: 1, Seq: 4}}})},
	}
	for _, tc := range cases {
		_, j := newJobCfg(t, 3, loggingConfig())
		if err := j.Rank(0).RestoreLibState(tc.blob); err == nil {
			t.Errorf("%s: restored without error", tc.name)
		}
		if _, err := j.ReplayLogs(); err != nil {
			t.Errorf("%s: replay after a rejected restore: %v", tc.name, err)
		}
	}
	ok := encodeV2(t, libStateV2{SendSeq: sent, Floor: []seqEntry{{Peer: 1, Seq: 1}},
		Log: []savedLog{{Dst: 1, Seq: 2}, {Dst: 1, Seq: 3}}})
	_, j := newJobCfg(t, 3, loggingConfig())
	if err := j.Rank(0).RestoreLibState(ok); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

// FuzzRestoreLibState: arbitrary bytes either fail to restore with an error
// or restore cleanly, and replay after a clean restore never panics.
func FuzzRestoreLibState(f *testing.F) {
	_, v1 := pingLog(f, DefaultConfig(), 4, 2, 0)
	_, v2 := pingLog(f, loggingConfig(), 4, 2, 0)
	j, _ := pingLog(f, loggingConfig(), 6, 6, 1)
	j.Rank(1).CommitCheckpoint(1)
	trimmed, err := j.Rank(0).CaptureLibState()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{v1[0], v1[1], v2[0], v2[1], v2[2], trimmed, nil,
		[]byte(libStateV2Magic), []byte("garbage")} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, logging := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.LogMessages = logging
			_, j := newJobCfg(t, 3, cfg)
			if err := j.Rank(1).RestoreLibState(data); err != nil {
				continue
			}
			if _, err := j.ReplayLogs(); err != nil && !strings.Contains(err.Error(), "replay gap") {
				t.Fatalf("replay after a clean restore: %v", err)
			}
			if _, err := RollbackSenders([][]byte{nil, data, nil}); err != nil {
				t.Fatalf("a restorable state does not decode for the line check: %v", err)
			}
		}
	})
}
