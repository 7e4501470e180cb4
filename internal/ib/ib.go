// Package ib models an InfiniBand-like interconnect: a non-blocking switch
// fabric with per-NIC egress serialization, a connection-oriented transport
// (queue pairs that must be explicitly established and torn down), and an
// out-of-band management channel used for connection handshakes — the setup
// MVAPICH2 uses and the reason connection management is far more expensive
// than TCP/IP (Section 2.2 of the paper).
//
// Processing discipline: packet *arrival* is hardware (egress serialization
// plus wire latency) and always happens on time, but *processing* of an
// arrived packet — matching, protocol state machines, connection handshakes —
// only happens when the owner calls Endpoint.Progress. The MPI layer calls
// Progress when the application is inside the MPI library, and otherwise on
// its helper-thread tick; this reproduces the asynchronous-progress behaviour
// that Section 4.4 of the paper addresses.
package ib

import (
	"errors"
	"fmt"
	"sort"

	"gbcr/internal/obs"
	"gbcr/internal/sim"
)

// MB is one mebibyte in bytes.
const MB = 1 << 20

// Errors returned by Endpoint.Send.
var (
	ErrNotConnected = errors.New("ib: no established connection to peer")
	ErrDraining     = errors.New("ib: connection is draining or disconnecting")
)

// Config parameterizes the fabric.
type Config struct {
	// Latency is the in-band one-way wire latency (a few microseconds on
	// the paper's DDR hardware).
	Latency sim.Time
	// LinkBW is each NIC's link bandwidth in bytes/second.
	LinkBW float64
	// OOBLatency is the one-way latency of the out-of-band management
	// channel used for connection handshakes and job-level coordination.
	OOBLatency sim.Time
	// CtlSize is the wire size of in-band control packets (flush markers).
	CtlSize int64
	// HandshakeTimeout is the base retransmission timeout for connection
	// management and flush packets. Zero selects 4×OOBLatency (or 1 ms if
	// OOBLatency is zero). Retransmission timers are armed only while a drop
	// filter is installed, so fault-free runs schedule no timer events.
	HandshakeTimeout sim.Time
	// HandshakeRetries caps how many times one packet is retransmitted
	// before the endpoint declares the peer unreachable and fails the
	// simulation. Zero selects 8.
	HandshakeRetries int
	// HandshakeBackoffCap caps the exponential backoff between
	// retransmissions. Zero selects 16×HandshakeTimeout.
	HandshakeBackoffCap sim.Time
}

// handshakeTimeout resolves the base retransmission timeout default.
func (cfg Config) handshakeTimeout() sim.Time {
	if cfg.HandshakeTimeout > 0 {
		return cfg.HandshakeTimeout
	}
	if cfg.OOBLatency > 0 {
		return 4 * cfg.OOBLatency
	}
	return sim.Millisecond
}

// handshakeRetries resolves the retransmission-attempt cap default.
func (cfg Config) handshakeRetries() int {
	if cfg.HandshakeRetries > 0 {
		return cfg.HandshakeRetries
	}
	return 8
}

// backoffCap resolves the backoff ceiling default.
func (cfg Config) backoffCap() sim.Time {
	if cfg.HandshakeBackoffCap > 0 {
		return cfg.HandshakeBackoffCap
	}
	return 16 * cfg.handshakeTimeout()
}

// PaperConfig returns fabric parameters matching the evaluation testbed:
// Mellanox DDR HCAs (~1.5 GB/s links, ~4 us latency) with connection
// management over an out-of-band channel (~150 us per message).
func PaperConfig() Config {
	return Config{
		Latency:    4 * sim.Microsecond,
		LinkBW:     1400 * MB,
		OOBLatency: 150 * sim.Microsecond,
		CtlSize:    64,
	}
}

// DropFilter decides, per protocol packet, whether the fabric loses it in
// flight. kind is one of "REQ", "REP", "RTU", "DISC_REQ", "DISC_REP",
// "FLUSH", "FLUSH_ACK". Returning true drops the packet: it never arrives,
// and the sender's retransmission timer (armed whenever a filter is
// installed) is what recovers the handshake. Application payloads are never
// offered to the filter — the paper's fault model is lossy connection
// management, not lossy RC channels.
type DropFilter func(src, dst int, kind string) bool

// Fabric is the switch connecting all endpoints.
type Fabric struct {
	k          *sim.Kernel
	cfg        Config
	bus        *obs.Bus
	eps        map[int]*Endpoint
	dropFilter DropFilter
}

// SetDropFilter installs (or, with nil, removes) the protocol-packet drop
// filter. Installing a filter also arms handshake retransmission timers on
// every subsequent connection-management exchange; without one, no timer
// events are scheduled and traces are identical to an unhardened fabric.
func (f *Fabric) SetDropFilter(fn DropFilter) { f.dropFilter = fn }

// New creates an empty fabric.
func New(k *sim.Kernel, cfg Config) (*Fabric, error) {
	if cfg.LinkBW <= 0 {
		return nil, fmt.Errorf("ib: LinkBW must be positive, got %v", cfg.LinkBW)
	}
	return &Fabric{k: k, cfg: cfg, eps: make(map[int]*Endpoint)}, nil
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// SetObs attaches an observability bus (nil detaches). Connection-management
// handshakes (REQ/REP/RTU), flush/disconnect transitions, and epoch-deferred
// connection requests emit ib-layer events on the owning endpoint's track,
// and the bus's registry accumulates fabric counters.
func (f *Fabric) SetObs(b *obs.Bus) { f.bus = b }

// emit records an ib-layer instant on the endpoint's track.
func (ep *Endpoint) emit(what string, peer int) {
	ep.f.bus.Emit(obs.Event{At: ep.f.k.Now(), Rank: ep.id, Layer: obs.LayerIB,
		Type: obs.Instant, What: what, Arg: int64(peer)})
}

// Endpoint returns the endpoint with the given id, or nil.
func (f *Fabric) Endpoint(id int) *Endpoint { return f.eps[id] }

// ConnState describes one side of a connection.
type ConnState int

// Connection states.
const (
	StateClosed        ConnState = iota // no connection
	StateConnecting                     // active side, REQ sent
	StateAccepting                      // passive side, REP sent
	StateConnected                      // established, data may flow
	StateDraining                       // flush protocol in progress
	StateDisconnecting                  // drained, disconnect handshake in progress
)

var stateNames = [...]string{"closed", "connecting", "accepting", "connected", "draining", "disconnecting"}

func (s ConnState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("ConnState(%d)", int(s))
}

// Internal protocol payloads. They ride the same delivery path as
// application payloads but are consumed by the connection state machine.
type (
	cmConnReq struct{ meta int64 }
	cmConnRep struct{}
	cmConnRtu struct{}
	cmDiscReq struct{}
	cmDiscRep struct{}

	ctlFlush    struct{}
	ctlFlushAck struct{}
)

// conn is one endpoint's side of a connection.
type conn struct {
	peer        int
	state       ConnState
	meta        int64
	initiator   bool // this side called Disconnect
	sentFlush   bool
	gotFlushAck bool
	retry       sim.Event // pending retransmission timer, zero if disarmed
	retries     int       // retransmissions already sent in this state
}

// workItem is an arrived-but-unprocessed packet.
type workItem struct {
	src     int
	oob     bool
	size    int64
	payload any
}

// Stats counts endpoint activity.
type Stats struct {
	ConnectsInitiated int
	ConnectsAccepted  int
	Disconnects       int
	MessagesSent      int
	BytesSent         int64
	OOBSent           int
	CtlProcessed      int
	MessagesDelivered int
	Retransmits       int
	PacketsDropped    int
}

// Endpoint is one process's NIC plus connection manager.
type Endpoint struct {
	f  *Fabric
	id int

	conns      map[int]*conn
	egressFree sim.Time
	work       []workItem
	deferred   []workItem

	stats Stats

	// OnMessage receives application payloads from established (or
	// draining) connections, in FIFO order per source.
	OnMessage func(src int, size int64, payload any)
	// OnOOB receives application out-of-band payloads (e.g. checkpoint
	// coordination traffic).
	OnOOB func(src int, payload any)
	// OnWork is invoked (in kernel context) whenever a packet arrives and
	// processing work is pending. The owner decides when to call Progress.
	OnWork func()
	// OnConnUp is invoked when a connection to peer becomes established.
	OnConnUp func(peer int)
	// OnConnDown is invoked when a connection to peer is fully torn down.
	OnConnDown func(peer int)
	// AcceptConn, if non-nil, gates passive connection acceptance. Return
	// false to defer the request; deferred requests are retried on
	// Reexamine. meta is the opaque value the initiator passed to Connect
	// (the checkpoint layer uses it to carry the initiator's epoch).
	AcceptConn func(peer int, meta int64) bool
	// OnOOBImmediate, if non-nil, sees application out-of-band payloads at
	// arrival time, before they queue for Progress — the model of the
	// checkpoint controller thread, which listens on its own channel and is
	// not subject to the MPI progress rule. Returning true consumes the
	// message.
	OnOOBImmediate func(src int, payload any) bool
}

// AddEndpoint registers a new endpoint with the given id (ids need not be
// contiguous; the checkpoint coordinator uses a negative id).
func (f *Fabric) AddEndpoint(id int) (*Endpoint, error) {
	if _, dup := f.eps[id]; dup {
		return nil, fmt.Errorf("ib: duplicate endpoint id %d", id)
	}
	ep := &Endpoint{f: f, id: id, conns: make(map[int]*conn)}
	f.eps[id] = ep
	return ep, nil
}

// ID returns the endpoint id.
func (ep *Endpoint) ID() int { return ep.id }

// EgressFree reports when the NIC's egress becomes idle. Immediately after a
// successful Send it is the transmit-completion time of that packet; upper
// layers use it to model local (sender-side) completion of zero-copy
// transfers.
func (ep *Endpoint) EgressFree() sim.Time { return ep.egressFree }

// Stats returns a copy of the endpoint's activity counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// State reports the connection state toward peer.
func (ep *Endpoint) State(peer int) ConnState {
	if c := ep.conns[peer]; c != nil {
		return c.state
	}
	return StateClosed
}

// Connected reports whether data can be sent to peer right now.
func (ep *Endpoint) Connected(peer int) bool { return ep.State(peer) == StateConnected }

// Peers returns the ids of all peers with a non-closed connection, sorted.
func (ep *Endpoint) Peers() []int {
	out := make([]int, 0, len(ep.conns))
	//lint:allow-simdeterminism keys are sorted below before the slice is returned
	for p := range ep.conns {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// transmit sends a packet in-band: the NIC serializes egress at LinkBW, then
// the packet arrives after the wire latency. Per-destination FIFO order is
// guaranteed (serial egress + constant latency).
func (ep *Endpoint) transmit(dst int, size int64, payload any) error {
	peer := ep.f.eps[dst]
	if peer == nil {
		return fmt.Errorf("ib: endpoint %d sending to unknown endpoint %d", ep.id, dst)
	}
	k := ep.f.k
	start := k.Now()
	if ep.egressFree > start {
		start = ep.egressFree
	}
	tx := sim.Time(float64(size) / ep.f.cfg.LinkBW * float64(sim.Second))
	ep.egressFree = start + tx
	arrival := ep.egressFree + ep.f.cfg.Latency
	src := ep.id
	k.At(arrival, func() { peer.receive(workItem{src: src, size: size, payload: payload}) })
	ep.stats.MessagesSent++
	ep.stats.BytesSent += size
	m := ep.f.bus.Metrics()
	m.Counter(obs.LayerIB, "msgs").Inc()
	m.Counter(obs.LayerIB, "bytes").Add(size)
	return nil
}

// SendOOB sends a payload over the out-of-band management channel. It does
// not require a connection and does not consume link bandwidth.
func (ep *Endpoint) SendOOB(dst int, payload any) error {
	peer := ep.f.eps[dst]
	if peer == nil {
		return fmt.Errorf("ib: endpoint %d sending OOB to unknown endpoint %d", ep.id, dst)
	}
	src := ep.id
	ep.stats.OOBSent++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "oob_msgs").Inc()
	ep.f.k.After(ep.f.cfg.OOBLatency, func() {
		peer.receive(workItem{src: src, oob: true, payload: payload})
	})
	return nil
}

// cmKind names a protocol payload for the drop filter, or "" for
// application traffic (which is never dropped).
func cmKind(payload any) string {
	switch payload.(type) {
	case cmConnReq:
		return "REQ"
	case cmConnRep:
		return "REP"
	case cmConnRtu:
		return "RTU"
	case cmDiscReq:
		return "DISC_REQ"
	case cmDiscRep:
		return "DISC_REP"
	case ctlFlush:
		return "FLUSH"
	case ctlFlushAck:
		return "FLUSH_ACK"
	}
	return ""
}

// dropped consults the fabric drop filter for a protocol payload headed to
// dst, recording the loss if the filter claims it.
func (ep *Endpoint) dropped(dst int, payload any) bool {
	filter := ep.f.dropFilter
	if filter == nil {
		return false
	}
	kind := cmKind(payload)
	if kind == "" || !filter(ep.id, dst, kind) {
		return false
	}
	ep.stats.PacketsDropped++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "cm_drops").Inc()
	ep.f.bus.Emit(obs.Event{At: ep.f.k.Now(), Rank: ep.id, Layer: obs.LayerIB,
		Type: obs.Instant, What: "cm-drop", Detail: kind, Arg: int64(dst)})
	return true
}

// sendCM sends an internal connection-management payload over the
// out-of-band channel, subject to the drop filter. The peer was validated
// when the connection was created, so a lookup failure here is a fabric
// invariant violation and aborts the simulation.
func (ep *Endpoint) sendCM(dst int, payload any) {
	if ep.dropped(dst, payload) {
		return
	}
	if err := ep.SendOOB(dst, payload); err != nil {
		ep.f.k.Fail(err)
	}
}

// sendCtl transmits an internal in-band control packet (flush protocol),
// failing the simulation on a fabric invariant violation like sendCM. A
// dropped control packet still serializes on the NIC egress — it is lost on
// the wire, not suppressed at the source — so drain timing stays honest.
func (ep *Endpoint) sendCtl(dst int, size int64, payload any) {
	if ep.dropped(dst, payload) {
		start := ep.f.k.Now()
		if ep.egressFree > start {
			start = ep.egressFree
		}
		ep.egressFree = start + sim.Time(float64(size)/ep.f.cfg.LinkBW*float64(sim.Second))
		return
	}
	if err := ep.transmit(dst, size, payload); err != nil {
		ep.f.k.Fail(err)
	}
}

// disarm cancels c's pending retransmission timer, if any.
func (ep *Endpoint) disarm(c *conn) {
	c.retry.Cancel()
	c.retry = sim.Event{}
}

// armRetransmit schedules the handshake retransmission timer for c with
// capped exponential backoff. Timers are armed only while a drop filter is
// installed: fault-free runs schedule no timer events, keeping their traces
// byte-identical to an unhardened fabric.
func (ep *Endpoint) armRetransmit(c *conn) {
	if ep.f.dropFilter == nil {
		return
	}
	ep.disarm(c)
	d := ep.f.cfg.handshakeTimeout()
	ceiling := ep.f.cfg.backoffCap()
	for i := 0; i < c.retries && d < ceiling; i++ {
		d *= 2
	}
	if d > ceiling {
		d = ceiling
	}
	peer := c.peer
	c.retry = ep.f.k.After(d, func() { ep.retransmit(peer) })
}

// retransmit fires when a handshake step has not advanced within its
// timeout: it re-sends the packet appropriate to the connection's current
// state and re-arms with doubled backoff, failing the simulation with a
// clear diagnosis once the retry budget is exhausted (a lost CM packet must
// stall progress measurably, never hang it silently).
func (ep *Endpoint) retransmit(peer int) {
	c := ep.conns[peer]
	if c == nil {
		return
	}
	c.retry = sim.Event{}
	if c.retries >= ep.f.cfg.handshakeRetries() {
		ep.f.k.Fail(fmt.Errorf("ib: endpoint %d handshake with %d stuck in state %v after %d retransmits",
			ep.id, peer, c.state, c.retries))
		return
	}
	c.retries++
	ep.stats.Retransmits++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "retransmits").Inc()
	ep.f.bus.Emit(obs.Event{At: ep.f.k.Now(), Rank: ep.id, Layer: obs.LayerIB,
		Type: obs.Instant, What: "cm-retransmit", Detail: c.state.String(), Arg: int64(peer)})
	switch c.state {
	case StateConnecting:
		ep.sendCM(peer, cmConnReq{meta: c.meta})
	case StateAccepting:
		ep.sendCM(peer, cmConnRep{})
	case StateDraining:
		if !c.sentFlush {
			return // passive side: the initiator's retransmits drive recovery
		}
		ep.sendCtl(peer, ep.f.cfg.CtlSize, ctlFlush{})
	case StateDisconnecting:
		ep.sendCM(peer, cmDiscReq{})
	default:
		return
	}
	ep.armRetransmit(c)
}

// Send transmits an application payload of the given wire size to dst over
// an established connection.
func (ep *Endpoint) Send(dst int, size int64, payload any) error {
	c := ep.conns[dst]
	switch {
	case c == nil || c.state == StateClosed, c.state == StateConnecting, c.state == StateAccepting:
		return ErrNotConnected
	case c.state == StateDraining || c.state == StateDisconnecting:
		return ErrDraining
	}
	return ep.transmit(dst, size, payload)
}

// receive handles an arrived packet. Connection-management packets are
// processed immediately — MVAPICH2 runs connection management on a dedicated
// asynchronous thread — while in-band traffic (data, flush markers) queues
// until the owner calls Progress, following the MPI progress rule.
func (ep *Endpoint) receive(it workItem) {
	switch it.payload.(type) {
	case cmConnReq, cmConnRep, cmConnRtu, cmDiscReq, cmDiscRep:
		ep.process(it)
		return
	}
	if it.oob && ep.OnOOBImmediate != nil && ep.OnOOBImmediate(it.src, it.payload) {
		return
	}
	ep.work = append(ep.work, it)
	if ep.OnWork != nil {
		ep.OnWork()
	}
}

// PendingWork reports whether Progress has queued packets to process.
func (ep *Endpoint) PendingWork() bool { return len(ep.work) > 0 }

// Progress processes all queued arrivals: connection-management handshakes,
// flush markers, and application deliveries (via OnMessage/OnOOB).
func (ep *Endpoint) Progress() {
	for len(ep.work) > 0 {
		it := ep.work[0]
		ep.work = ep.work[1:]
		ep.process(it)
	}
}

// Reexamine re-queues deferred connection requests (e.g. after the checkpoint
// epoch advanced) and processes them.
func (ep *Endpoint) Reexamine() {
	if len(ep.deferred) == 0 {
		return
	}
	ep.work = append(ep.work, ep.deferred...)
	ep.deferred = nil
	ep.Progress()
}

// DeferredConnects reports how many connection requests are parked awaiting
// Reexamine.
func (ep *Endpoint) DeferredConnects() int { return len(ep.deferred) }

func (ep *Endpoint) process(it workItem) {
	switch pl := it.payload.(type) {
	case cmConnReq:
		ep.stats.CtlProcessed++
		ep.handleConnReq(it, pl)
	case cmConnRep:
		ep.stats.CtlProcessed++
		ep.handleConnRep(it.src)
	case cmConnRtu:
		ep.stats.CtlProcessed++
		ep.handleConnRtu(it.src)
	case cmDiscReq:
		ep.stats.CtlProcessed++
		ep.handleDiscReq(it.src)
	case cmDiscRep:
		ep.stats.CtlProcessed++
		ep.handleDiscRep(it.src)
	case ctlFlush:
		ep.stats.CtlProcessed++
		ep.promoteOnInband(it.src)
		ep.handleFlush(it.src)
	case ctlFlushAck:
		ep.stats.CtlProcessed++
		ep.promoteOnInband(it.src)
		ep.handleFlushAck(it.src)
	default:
		if it.oob {
			if ep.OnOOB != nil {
				ep.OnOOB(it.src, it.payload)
			}
			return
		}
		ep.promoteOnInband(it.src)
		ep.stats.MessagesDelivered++
		if ep.OnMessage != nil {
			ep.OnMessage(it.src, it.size, it.payload)
		}
	}
}

// promoteOnInband completes the passive side of a handshake when in-band
// traffic arrives while still in Accepting: the peer can transmit as soon as
// it processed our REP, and its data may physically outrun the out-of-band
// RTU. The arrival itself proves the connection is established (the real
// hardware analogue: the queue pair is already in RTR after the REP).
func (ep *Endpoint) promoteOnInband(peer int) {
	c := ep.conns[peer]
	if c == nil || c.state != StateAccepting {
		return
	}
	ep.disarm(c)
	c.retries = 0
	c.state = StateConnected
	ep.emit("conn-up", peer)
	if ep.OnConnUp != nil {
		ep.OnConnUp(peer)
	}
}

// Connect initiates connection establishment toward peer. meta is an opaque
// value shown to the peer's AcceptConn hook. Calling Connect on a connection
// that exists in any state is a no-op.
func (ep *Endpoint) Connect(peer int, meta int64) error {
	if peer == ep.id {
		return fmt.Errorf("ib: endpoint %d connecting to itself", ep.id)
	}
	if ep.f.eps[peer] == nil {
		return fmt.Errorf("ib: endpoint %d connecting to unknown endpoint %d", ep.id, peer)
	}
	if ep.conns[peer] != nil {
		return nil
	}
	c := &conn{peer: peer, state: StateConnecting, meta: meta}
	ep.conns[peer] = c
	ep.stats.ConnectsInitiated++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "connects").Inc()
	ep.emit("cm-req", peer)
	ep.sendCM(peer, cmConnReq{meta: meta})
	ep.armRetransmit(c)
	return nil
}

func (ep *Endpoint) handleConnReq(it workItem, req cmConnReq) {
	peer := it.src
	c := ep.conns[peer]
	if c != nil {
		switch c.state {
		case StateConnecting:
			// Crossing REQs: the lower id stays active, the higher id
			// abandons its attempt and answers passively.
			if ep.id > peer {
				c.state = StateAccepting
				c.meta = req.meta
				c.retries = 0
				ep.stats.ConnectsAccepted++
				ep.f.bus.Metrics().Counter(obs.LayerIB, "accepts").Inc()
				ep.emit("cm-rep", peer)
				ep.sendCM(peer, cmConnRep{})
				ep.armRetransmit(c)
			}
			// Lower id: ignore; the peer will abandon its REQ.
			return
		case StateAccepting:
			// Duplicate REQ: our REP was lost and the initiator timed out.
			// Re-answer; our own retransmission timer keeps its schedule.
			ep.emit("cm-rep", peer)
			ep.sendCM(peer, cmConnRep{})
			return
		default:
			// Duplicate or stale REQ; ignore.
			return
		}
	}
	if ep.AcceptConn != nil && !ep.AcceptConn(peer, req.meta) {
		ep.deferred = append(ep.deferred, it)
		ep.f.bus.Metrics().Counter(obs.LayerIB, "deferred_connects").Inc()
		ep.emit("cm-defer", peer)
		return
	}
	c = &conn{peer: peer, state: StateAccepting, meta: req.meta}
	ep.conns[peer] = c
	ep.stats.ConnectsAccepted++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "accepts").Inc()
	ep.emit("cm-rep", peer)
	ep.sendCM(peer, cmConnRep{})
	ep.armRetransmit(c)
}

func (ep *Endpoint) handleConnRep(peer int) {
	c := ep.conns[peer]
	if c == nil {
		return
	}
	if c.state == StateConnected {
		// Duplicate REP: our RTU was lost and the acceptor timed out.
		// Re-confirm so the passive side can leave Accepting.
		ep.sendCM(peer, cmConnRtu{})
		return
	}
	if c.state != StateConnecting {
		return
	}
	ep.disarm(c)
	c.retries = 0
	c.state = StateConnected
	ep.emit("conn-up", peer)
	ep.sendCM(peer, cmConnRtu{})
	if ep.OnConnUp != nil {
		ep.OnConnUp(peer)
	}
}

func (ep *Endpoint) handleConnRtu(peer int) {
	c := ep.conns[peer]
	if c == nil || c.state != StateAccepting {
		return
	}
	ep.disarm(c)
	c.retries = 0
	c.state = StateConnected
	ep.emit("conn-up", peer)
	if ep.OnConnUp != nil {
		ep.OnConnUp(peer)
	}
}

// Disconnect starts the flush-and-teardown protocol toward peer: in-band
// flush markers drain both directions, then an out-of-band disconnect
// handshake destroys the connection. OnConnDown fires on both sides when
// complete. Disconnect on a non-established connection is a no-op.
func (ep *Endpoint) Disconnect(peer int) {
	c := ep.conns[peer]
	if c == nil || c.state != StateConnected {
		return
	}
	c.state = StateDraining
	c.initiator = true
	c.sentFlush = true
	c.retries = 0
	ep.emit("flush-start", peer)
	ep.sendCtl(peer, ep.f.cfg.CtlSize, ctlFlush{})
	ep.armRetransmit(c)
}

func (ep *Endpoint) handleFlush(peer int) {
	c := ep.conns[peer]
	if c == nil {
		return
	}
	switch c.state {
	case StateConnected:
		// Passive side: enter draining, acknowledge. The ack is queued
		// behind any in-flight egress, so its arrival proves this
		// direction is drained.
		c.state = StateDraining
	case StateDraining:
		// Crossing disconnects: both initiated; still acknowledge.
	default:
		return
	}
	ep.sendCtl(peer, ep.f.cfg.CtlSize, ctlFlushAck{})
}

func (ep *Endpoint) handleFlushAck(peer int) {
	c := ep.conns[peer]
	if c == nil || c.state != StateDraining || !c.sentFlush {
		return
	}
	ep.disarm(c)
	c.retries = 0
	c.gotFlushAck = true
	c.state = StateDisconnecting
	ep.emit("disc-req", peer)
	ep.sendCM(peer, cmDiscReq{})
	ep.armRetransmit(c)
}

func (ep *Endpoint) handleDiscReq(peer int) {
	c := ep.conns[peer]
	if c == nil {
		// Already closed (crossing disconnects); stay idempotent.
		ep.sendCM(peer, cmDiscRep{})
		return
	}
	switch c.state {
	case StateDraining, StateDisconnecting:
		ep.sendCM(peer, cmDiscRep{})
		ep.closeConn(peer)
	}
}

func (ep *Endpoint) handleDiscRep(peer int) {
	c := ep.conns[peer]
	if c == nil || c.state != StateDisconnecting {
		return
	}
	ep.closeConn(peer)
}

func (ep *Endpoint) closeConn(peer int) {
	if c := ep.conns[peer]; c != nil {
		ep.disarm(c)
	}
	delete(ep.conns, peer)
	ep.stats.Disconnects++
	ep.f.bus.Metrics().Counter(obs.LayerIB, "disconnects").Inc()
	ep.emit("conn-down", peer)
	if ep.OnConnDown != nil {
		ep.OnConnDown(peer)
	}
}
