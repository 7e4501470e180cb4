package mpi

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"gbcr/internal/obs"
)

// Sender-log garbage collection (Johnson & Zwaenepoel). A logged message is
// needed only while some restart could roll its receiver back to before it
// arrived. Once a receiver's checkpoint is durable, every message that
// checkpoint had incorporated — per source, everything up to the source's
// sequence number recorded at the snapshot instant (the watermark) — will be
// restored from the receiver's own snapshot, so its senders drop those log
// entries. The log then holds one checkpoint interval of traffic instead of
// the whole run, and snapshots carry only that live suffix plus, per
// destination, the sequence number the log was trimmed through (its floor).

// watermark is one captured checkpoint's per-source receive watermark,
// held until the checkpoint commits.
type watermark struct {
	id   int
	recv []seqEntry
}

// MarkCheckpoint records the rank's per-source receive watermark at a
// snapshot instant, under the caller's checkpoint id (the epoch). It must be
// called at the same instant the snapshot is captured; CommitCheckpoint with
// the same id later releases the senders' log entries the snapshot covers.
// A retried cycle marks its id again; the aborted attempt's watermark is
// lower, so committing both trims no further than the retry's alone. Without
// LogMessages there is no log and the call does nothing.
func (r *Rank) MarkCheckpoint(id int) {
	if !r.job.cfg.LogMessages {
		return
	}
	r.marks = append(r.marks, watermark{id: id, recv: sortedSeqEntries(r.recvSeqOf)})
}

// CommitCheckpoint is the log garbage-collection point: the checkpoint
// marked id is durable, so every sender drops its log entries to this rank
// with a sequence number at or below the checkpoint's watermark for that
// sender. Watermarks of id and older are forgotten. Callers commit only
// snapshots that a restart may rely on; a restart that must fall back behind
// a committed watermark has to roll the trimmed senders back too
// (RollbackSenders tells which).
func (r *Rank) CommitCheckpoint(id int) {
	keep := r.marks[:0]
	for _, w := range r.marks {
		if w.id == id {
			for _, e := range w.recv {
				r.job.ranks[e.Peer].trimLog(r.world, e.Seq)
			}
		}
		if w.id > id {
			keep = append(keep, w)
		}
	}
	clear(r.marks[len(keep):])
	r.marks = keep
}

// trimLog drops the log entries to dst with seq ≤ through and raises the
// destination's floor. The live suffix is copied into a fresh slice so the
// trimmed prefix's payloads become garbage (reslicing would keep the whole
// backing array, and with it every dropped payload, reachable).
func (r *Rank) trimLog(dst int, through int64) {
	if through <= r.logFloor[dst] {
		return
	}
	r.logFloor[dst] = through
	log := r.msgLog[dst]
	n := sort.Search(len(log), func(i int) bool { return log[i].Seq > through })
	if n == 0 {
		return
	}
	r.stats.LogLive -= n
	r.job.bus.Metrics().Counter(obs.LayerMPI, "log_trimmed").Add(int64(n))
	if n == len(log) {
		delete(r.msgLog, dst)
		return
	}
	live := make([]logEntry, len(log)-n)
	copy(live, log[n:])
	r.msgLog[dst] = live
}

// appendLog records a logged send. A sequence number at or below the
// destination's floor is a re-send the receiver has already durably
// incorporated (a restarted sender re-executing behind a newer receiver), so
// it is not retained.
func (r *Rank) appendLog(dst int, le logEntry) {
	if le.Seq <= r.logFloor[dst] {
		return
	}
	r.msgLog[dst] = append(r.msgLog[dst], le)
	r.noteLogLive(1)
}

func (r *Rank) noteLogLive(n int) {
	r.stats.LogLive += n
	if r.stats.LogLive > r.stats.LogLivePeak {
		r.stats.LogLivePeak = r.stats.LogLive
	}
}

// ReplayLogs completes an uncoordinated restart: after every rank's library
// state has been restored (possibly from snapshots of different epochs), the
// logged messages a receiver's restored state had not yet incorporated are
// injected into its unexpected queue as eager deliveries, in per-pair
// sequence order. Restored senders re-execute and re-send everything after
// their own snapshot point, so the log must cover exactly the gap: messages
// sent before the sender's snapshot that the receiver (restored further
// back) had not seen. A receiver that needs a message the sender's log no
// longer holds — trimmed below the floor, yet not re-sent — is an error:
// the recovery line is inconsistent and replaying past the hole would
// silently lose the message. It returns the number of messages injected.
func (j *Job) ReplayLogs() (int, error) {
	injected := 0
	for src, s := range j.ranks {
		for _, dst := range sortedPeers(s.sendSeqTo) {
			d := j.ranks[dst]
			have := d.recvSeqOf[src]
			for _, le := range s.msgLog[dst] {
				if le.Seq <= have {
					continue
				}
				if le.Seq != have+1 {
					break
				}
				have = le.Seq
				d.recvSeqOf[src] = have
				d.unexpected = append(d.unexpected, inMsg{
					comm: le.Comm, srcComm: le.SrcComm, srcWorld: src,
					tag: le.Tag, eager: true, body: le.Body.clone(),
				})
				injected++
			}
			if have < s.sendSeqTo[dst] {
				return injected, fmt.Errorf("mpi: replay gap: rank %d needs seq %d from rank %d, whose log is trimmed through %d and re-sends only after %d",
					dst, have+1, src, s.logFloor[dst], s.sendSeqTo[dst])
			}
		}
	}
	return injected, nil
}

// logMeta is the part of a v2 library state that decides recovery-line
// consistency; gob skips the other fields when decoding into it.
type logMeta struct {
	SendSeq []seqEntry
	RecvSeq []seqEntry
	Floor   []seqEntry
}

// RollbackSenders checks a candidate recovery line — one captured library
// state per rank, nil for a rank restarting from scratch — for replay gaps
// and returns, in ascending order, the senders whose logs were trimmed past
// a receiver's restored watermark: sender s must roll back to an older
// state when some receiver r resumes with recvSeq[s] below s's floor toward
// r (and s will not re-send the missing messages). An empty result means
// ReplayLogs can reconcile the line. States without a sender log (logging
// off) never force a rollback.
func RollbackSenders(libStates [][]byte) ([]int, error) {
	n := len(libStates)
	metas := make([]logMeta, n)
	recv := make([]map[int]int64, n)
	for i, data := range libStates {
		recv[i] = map[int]int64{}
		if !bytes.HasPrefix(data, []byte(libStateV2Magic)) {
			continue
		}
		if err := gob.NewDecoder(bytes.NewReader(data[len(libStateV2Magic):])).Decode(&metas[i]); err != nil {
			return nil, fmt.Errorf("mpi: rank %d library state: %w", i, err)
		}
		for _, e := range metas[i].RecvSeq {
			recv[i][e.Peer] = e.Seq
		}
	}
	var out []int
	for s, m := range metas {
		sent := map[int]int64{}
		for _, e := range m.SendSeq {
			sent[e.Peer] = e.Seq
		}
		for _, f := range m.Floor {
			if f.Peer < 0 || f.Peer >= n {
				continue
			}
			if have := recv[f.Peer][s]; have < f.Seq && have < sent[f.Peer] {
				out = append(out, s)
				break
			}
		}
	}
	return out, nil
}
