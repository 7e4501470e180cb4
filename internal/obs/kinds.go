package obs

// Event-kind vocabulary. Every `What` value emitted anywhere in the stack is
// registered here as a `Kind*` constant; the obscomplete analyzer checks the
// two directions of that contract statically:
//
//   - an emit site (an obs.Event composite literal, or a call through a
//     wrapper whose string parameter is named `what`) whose kind literal is
//     not one of these constants' values is flagged, so a new event kind
//     cannot ship without being registered;
//   - two constants with the same value are flagged, so the vocabulary
//     stays a set.
//
// The constants are untyped so existing emit sites keep passing plain
// strings; registration is membership in this block, not a type. Known and
// AllKinds expose the vocabulary at runtime for sinks and tests.
const (
	// Kernel layer: process scheduling.
	KindSpawn = "spawn"
	KindPark  = "park"
	KindDone  = "done"

	// Storage layer: fluid-flow transfers and service state. Reads (restart
	// read-back) are direction-tagged with their own start/end kinds so
	// recovery traffic is distinguishable from checkpoint writes in traces.
	KindAvailability  = "availability"
	KindXferStart     = "xfer-start"
	KindXferEnd       = "xfer-end"
	KindXferAbort     = "xfer-abort"
	KindReadStart     = "read-start"
	KindReadEnd       = "read-end"
	KindRateRecompute = "rate-recompute"

	// Storage layer: multi-tier checkpoint hierarchy (storage/tier).
	KindTierWrite   = "tier-write"
	KindTierDrain   = "tier-drain"
	KindTierEvict   = "tier-evict"
	KindTierSpill   = "tier-spill"
	KindTierRecover = "tier-recover"

	// IB layer: connection management and teardown.
	KindConnUp       = "conn-up"
	KindConnDown     = "conn-down"
	KindCMReq        = "cm-req"
	KindCMRep        = "cm-rep"
	KindCMDefer      = "cm-defer"
	KindCMDrop       = "cm-drop" // emitted by both ib (observed drop) and fault (injected drop)
	KindCMRetransmit = "cm-retransmit"
	KindFlushStart   = "flush-start"
	KindDiscReq      = "disc-req"

	// MPI layer: protocol decisions and progress.
	KindBufferMsg   = "buffer-msg"
	KindBufferReq   = "buffer-req"
	KindOutboxDrain = "outbox-drain"
	KindDupDrop     = "dup-drop"
	KindMatchEager  = "match-eager"
	KindRdvGrant    = "rdv-grant"
	KindHelperTick  = "helper-tick"

	// CR layer, per-rank track (Controller).
	KindSafePoint      = "safe-point"
	KindCkptSync       = "ckpt-sync"
	KindCkptTeardown   = "ckpt-teardown"
	KindCkptWrite      = "ckpt-write"
	KindCkptDrain      = "ckpt-drain"
	KindCkptResumeWait = "ckpt-resume-wait"
	KindWriteFailed    = "write-failed"
	KindAbortResume    = "abort-resume"
	KindResume         = "resume"

	// CR layer, coordinator track.
	KindRequest    = "request"
	KindTurn       = "turn"
	KindGroupDone  = "group-done"
	KindAllDrained = "all-drained"
	KindCycleAbort = "cycle-abort" // coordinator decision and per-rank reaction
	KindCycleRetry = "cycle-retry"
	KindCycleDone  = "cycle-done"

	// Fault layer: injected faults.
	KindCrash    = "crash"
	KindOutage   = "outage"
	KindCorrupt  = "corrupt"
	KindMemLoss  = "memloss"
	KindBBOutage = "bb-outage"
)

// allKinds lists every registered kind once, in declaration order. A test
// asserts it matches the constant block and contains no duplicates.
var allKinds = []string{
	KindSpawn, KindPark, KindDone,
	KindAvailability, KindXferStart, KindXferEnd, KindXferAbort, KindReadStart,
	KindReadEnd, KindRateRecompute,
	KindTierWrite, KindTierDrain, KindTierEvict, KindTierSpill, KindTierRecover,
	KindConnUp, KindConnDown, KindCMReq, KindCMRep, KindCMDefer, KindCMDrop,
	KindCMRetransmit, KindFlushStart, KindDiscReq,
	KindBufferMsg, KindBufferReq, KindOutboxDrain, KindDupDrop, KindMatchEager,
	KindRdvGrant, KindHelperTick,
	KindSafePoint, KindCkptSync, KindCkptTeardown, KindCkptWrite, KindCkptDrain,
	KindCkptResumeWait, KindWriteFailed, KindAbortResume, KindResume,
	KindRequest, KindTurn, KindGroupDone, KindAllDrained, KindCycleAbort,
	KindCycleRetry, KindCycleDone,
	KindCrash, KindOutage, KindCorrupt, KindMemLoss, KindBBOutage,
}

// known is the vocabulary as a set, built once.
var known = func() map[string]bool {
	m := make(map[string]bool, len(allKinds))
	for _, k := range allKinds {
		m[k] = true
	}
	return m
}()

// Known reports whether what is a registered event kind.
func Known(what string) bool { return known[what] }

// AllKinds returns the registered event-kind vocabulary in declaration
// order. The returned slice is a copy.
func AllKinds() []string { return append([]string(nil), allKinds...) }
