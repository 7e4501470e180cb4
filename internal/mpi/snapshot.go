package mpi

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
)

// RequestSafePointPolled asks for a safe point without interrupting the
// application; the request is served only at an explicit MaybeCheckpoint (or
// CollectiveCheckpoint) boundary, never inside ordinary library calls.
// Functional-restart runs use this mode so that snapshots land only at
// points the application can resume from.
func (r *Rank) RequestSafePointPolled() {
	r.pendingSP = true
	r.spPolled = true
	r.spSeq++
}

// Traffic returns a copy of the per-destination message counts, the
// communication-pattern heuristic used by dynamic group formation.
func (r *Rank) Traffic() map[int]int64 {
	out := make(map[int]int64, len(r.trafficTo))
	//lint:allow-simdeterminism copying map to map is order-independent
	for d, n := range r.trafficTo {
		out[d] = n
	}
	return out
}

// AdvanceCollSeq fast-forwards the collective sequence counter after a
// restart, so that re-created communicators resume tag allocation where the
// checkpointed execution left off.
func (c *Comm) AdvanceCollSeq(n int) { c.collSeq = n }

// CollSeq reports the number of collectives issued on this communicator.
func (c *Comm) CollSeq() int { return c.collSeq }

// Serializable mirrors of internal queue entries (gob requires exported
// fields).
type savedMsg struct {
	Comm     int64
	SrcComm  int
	SrcWorld int
	Tag      int
	Data     []byte
}

type savedOut struct {
	Dst     int
	Comm    int64
	SrcComm int
	Tag     int
	Data    []byte
}

type libState struct {
	Unexpected []savedMsg
	Outbox     []savedOut
	CommIndex  int
}

// libStateV2Magic prefixes the extended capture format used in LogMessages
// mode. Without logging, CaptureLibState emits the v1 gob unchanged, so
// snapshot bytes (and thus storage timing) of non-logging runs are identical
// to the pre-logging library.
const libStateV2Magic = "gbcr/libstate/v2\n"

// logEntry is one sender-log record: the payload copy made at send time plus
// the envelope needed to replay it as an eager delivery.
type logEntry struct {
	Comm    int64
	SrcComm int
	Tag     int
	Seq     int64
	Body    payload
}

// seqEntry serializes one peer's sequence counter (maps are gob-encoded in
// iteration order, which would make snapshot bytes nondeterministic).
type seqEntry struct {
	Peer int
	Seq  int64
}

// savedOutV2 extends savedOut with the packet's sequence number so a restored
// deferred send stays deduplicatable.
type savedOutV2 struct {
	Dst     int
	Comm    int64
	SrcComm int
	Tag     int
	Seq     int64
	Data    []byte
}

// savedLog is one flattened sender-log record (Dst added for serialization).
type savedLog struct {
	Dst     int
	Comm    int64
	SrcComm int
	Tag     int
	Seq     int64
	Data    []byte
}

// libStateV2 is the LogMessages-mode capture. Log holds only the live
// suffix of the sender log; Floor records, per destination, the sequence
// number it was trimmed through (see CommitCheckpoint).
type libStateV2 struct {
	Unexpected []savedMsg
	Outbox     []savedOutV2
	CommIndex  int
	SendSeq    []seqEntry
	RecvSeq    []seqEntry
	Log        []savedLog
	Floor      []seqEntry
}

// CaptureLibState serializes the rank's library state for a snapshot: the
// unexpected-message queue and the deferred-send outbox. It must be called
// at a quiesced boundary: no posted receives, no pending rendezvous
// transfers, and only eager traffic in the queues — the discipline
// functional-restart workloads follow (timing-only runs never call it).
func (r *Rank) CaptureLibState() ([]byte, error) {
	if len(r.posted) > 0 {
		return nil, fmt.Errorf("mpi: rank %d has %d posted receives at capture", r.world, len(r.posted))
	}
	if len(r.sendReqs) > 0 || len(r.recvReqs) > 0 {
		return nil, fmt.Errorf("mpi: rank %d has pending rendezvous at capture", r.world)
	}
	if r.job.cfg.LogMessages {
		return r.captureLibStateV2()
	}
	st := libState{CommIndex: r.commIndex}
	for _, m := range r.unexpected {
		if !m.eager {
			return nil, fmt.Errorf("mpi: rank %d has an unexpected rendezvous at capture", r.world)
		}
		st.Unexpected = append(st.Unexpected, savedMsg{
			Comm: m.comm, SrcComm: m.srcComm, SrcWorld: m.srcWorld, Tag: m.tag, Data: m.body.bytes(),
		})
	}
	// Serialize outboxes in sorted destination order: map iteration order
	// would otherwise leak into the gob bytes (and the replay order of
	// restored sends), making snapshots differ across identical runs.
	dsts := make([]int, 0, len(r.outbox))
	//lint:allow-simdeterminism keys are sorted below before use
	for dst := range r.outbox {
		dsts = append(dsts, dst)
	}
	sort.Ints(dsts)
	for _, dst := range dsts {
		for _, it := range r.outbox[dst] {
			we, ok := it.pkt.(*wireEager)
			if !ok {
				return nil, fmt.Errorf("mpi: rank %d has a deferred non-eager packet at capture", r.world)
			}
			st.Outbox = append(st.Outbox, savedOut{
				Dst: dst, Comm: we.comm, SrcComm: we.srcComm, Tag: we.tag, Data: we.body.bytes(),
			})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// captureLibStateV2 is the LogMessages-mode capture: the v1 queues plus the
// per-peer sequence counters, the live sender-log suffix and its per-peer
// floors, all in sorted peer order so the bytes are deterministic.
func (r *Rank) captureLibStateV2() ([]byte, error) {
	st := libStateV2{CommIndex: r.commIndex}
	for _, m := range r.unexpected {
		if !m.eager {
			return nil, fmt.Errorf("mpi: rank %d has an unexpected rendezvous at capture", r.world)
		}
		st.Unexpected = append(st.Unexpected, savedMsg{
			Comm: m.comm, SrcComm: m.srcComm, SrcWorld: m.srcWorld, Tag: m.tag, Data: m.body.bytes(),
		})
	}
	for _, dst := range sortedPeers(r.outbox) {
		for _, it := range r.outbox[dst] {
			we, ok := it.pkt.(*wireEager)
			if !ok {
				return nil, fmt.Errorf("mpi: rank %d has a deferred non-eager packet at capture", r.world)
			}
			st.Outbox = append(st.Outbox, savedOutV2{
				Dst: dst, Comm: we.comm, SrcComm: we.srcComm, Tag: we.tag, Seq: we.seq, Data: we.body.bytes(),
			})
		}
	}
	st.SendSeq = sortedSeqEntries(r.sendSeqTo)
	st.RecvSeq = sortedSeqEntries(r.recvSeqOf)
	st.Floor = sortedSeqEntries(r.logFloor)
	for _, dst := range sortedPeers(r.msgLog) {
		for _, le := range r.msgLog[dst] {
			st.Log = append(st.Log, savedLog{
				Dst: dst, Comm: le.Comm, SrcComm: le.SrcComm, Tag: le.Tag, Seq: le.Seq, Data: le.Body.bytes(),
			})
		}
	}
	var buf bytes.Buffer
	buf.WriteString(libStateV2Magic)
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sortedPeers returns a map's peer keys in ascending order.
func sortedPeers[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	//lint:allow-simdeterminism keys are sorted below before use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func sortedSeqEntries(m map[int]int64) []seqEntry {
	out := make([]seqEntry, 0, len(m))
	for _, peer := range sortedPeers(m) {
		out = append(out, seqEntry{Peer: peer, Seq: m[peer]})
	}
	return out
}

// RestoreLibState reconstructs queues captured by CaptureLibState on a fresh
// rank (before its body is launched). Deferred sends are re-posted; they
// re-establish connections on demand as the restarted job runs.
func (r *Rank) RestoreLibState(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if bytes.HasPrefix(data, []byte(libStateV2Magic)) {
		return r.restoreLibStateV2(data[len(libStateV2Magic):])
	}
	var st libState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	for _, m := range st.Unexpected {
		if err := r.checkPeer("unexpected source", m.SrcWorld); err != nil {
			return err
		}
	}
	for _, o := range st.Outbox {
		if err := r.checkPeer("outbox destination", o.Dst); err != nil {
			return err
		}
	}
	r.commIndex = 0 // the restarted body re-creates its communicators
	for _, m := range st.Unexpected {
		r.unexpected = append(r.unexpected, inMsg{
			comm: m.Comm, srcComm: m.SrcComm, srcWorld: m.SrcWorld,
			tag: m.Tag, eager: true, body: bytesPayload(m.Data),
		})
	}
	for _, o := range st.Outbox {
		r.post(o.Dst, outItem{
			kind: outEager,
			size: eagerHdrSize + int64(len(o.Data)),
			pkt:  &wireEager{comm: o.Comm, srcComm: o.SrcComm, tag: o.Tag, body: bytesPayload(o.Data)},
		})
	}
	return nil
}

// restoreLibStateV2 reconstructs LogMessages-mode state: queues, per-peer
// sequence counters, and the sender log with its floors. Deferred sends
// re-post with their original sequence numbers, so a copy that also arrives
// via log replay is discarded by the receiver's duplicate check.
func (r *Rank) restoreLibStateV2(data []byte) error {
	var st libStateV2
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	if err := r.checkLibStateV2(&st); err != nil {
		return err
	}
	r.commIndex = 0 // the restarted body re-creates its communicators
	for _, m := range st.Unexpected {
		r.unexpected = append(r.unexpected, inMsg{
			comm: m.Comm, srcComm: m.SrcComm, srcWorld: m.SrcWorld,
			tag: m.Tag, eager: true, body: bytesPayload(m.Data),
		})
	}
	for _, se := range st.SendSeq {
		r.sendSeqTo[se.Peer] = se.Seq
	}
	for _, se := range st.RecvSeq {
		r.recvSeqOf[se.Peer] = se.Seq
	}
	for _, se := range st.Floor {
		r.logFloor[se.Peer] = se.Seq
	}
	for _, le := range st.Log {
		r.msgLog[le.Dst] = append(r.msgLog[le.Dst],
			logEntry{Comm: le.Comm, SrcComm: le.SrcComm, Tag: le.Tag, Seq: le.Seq, Body: bytesPayload(le.Data)})
	}
	r.noteLogLive(len(st.Log))
	for _, o := range st.Outbox {
		r.post(o.Dst, outItem{
			kind: outEager,
			size: eagerHdrSize + int64(len(o.Data)),
			pkt:  &wireEager{comm: o.Comm, srcComm: o.SrcComm, tag: o.Tag, seq: o.Seq, body: bytesPayload(o.Data)},
		})
	}
	return nil
}

// checkPeer rejects a decoded peer that is not another rank of the job.
func (r *Rank) checkPeer(field string, peer int) error {
	if peer < 0 || peer >= len(r.job.ranks) || peer == r.world {
		return fmt.Errorf("mpi: rank %d library state: %s %d is not a peer in a %d-rank job",
			r.world, field, peer, len(r.job.ranks))
	}
	return nil
}

// checkSeqs validates one decoded per-peer counter list and returns it as a
// map.
func (r *Rank) checkSeqs(field string, ents []seqEntry) (map[int]int64, error) {
	m := make(map[int]int64, len(ents))
	for _, se := range ents {
		if err := r.checkPeer(field, se.Peer); err != nil {
			return nil, err
		}
		if se.Seq < 0 {
			return nil, fmt.Errorf("mpi: rank %d library state: negative %s %d for peer %d", r.world, field, se.Seq, se.Peer)
		}
		m[se.Peer] = se.Seq
	}
	return m, nil
}

// checkLibStateV2 validates a decoded v2 state before any of it is applied:
// every peer is another rank of the job, counters are non-negative, and each
// destination's log is strictly ascending in sequence number, above its
// floor and no later than the last sequence sent — the ordering that log
// trimming and replay rely on.
func (r *Rank) checkLibStateV2(st *libStateV2) error {
	for _, m := range st.Unexpected {
		if err := r.checkPeer("unexpected source", m.SrcWorld); err != nil {
			return err
		}
	}
	for _, o := range st.Outbox {
		if err := r.checkPeer("outbox destination", o.Dst); err != nil {
			return err
		}
	}
	sent, err := r.checkSeqs("send counter", st.SendSeq)
	if err != nil {
		return err
	}
	if _, err := r.checkSeqs("receive counter", st.RecvSeq); err != nil {
		return err
	}
	last, err := r.checkSeqs("log floor", st.Floor)
	if err != nil {
		return err
	}
	for _, le := range st.Log {
		if err := r.checkPeer("log destination", le.Dst); err != nil {
			return err
		}
		if le.Seq <= last[le.Dst] || le.Seq > sent[le.Dst] {
			return fmt.Errorf("mpi: rank %d library state: log entry seq %d to rank %d out of order (after %d, last sent %d)",
				r.world, le.Seq, le.Dst, last[le.Dst], sent[le.Dst])
		}
		last[le.Dst] = le.Seq
	}
	return nil
}
