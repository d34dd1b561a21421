// Package simnet models a shared-nothing cluster network on top of the des
// kernel: named nodes with a virtual CPU, point-to-point blocking
// (rendezvous) connections in the style of MPI send/recv over persistent TCP,
// and asynchronous inbox links for fire-and-forget delivery.
//
// It is the substitute for the paper's physical testbed (Gigabit Ethernet,
// LAM/MPI). Timing model per exchange:
//
//	pairing:   a Send matches a Recv on the same connection direction; the
//	           side that arrives first blocks until the other shows up.
//	transfer:  ExchangeOverhead + size/Bandwidth occupies the sender; the
//	           receiver gets the message Latency after the transfer ends.
//
// All time a node spends inside Send/Recv — synchronization wait plus
// transfer — is accounted as communication time, matching how the paper
// measures "communication overhead" around blocking MPI calls. Idle time is
// only accumulated by explicit Idle/IdleUntil waits (a slave waiting for the
// next distribution epoch), matching Figures 9 and 10.
package simnet

import (
	"fmt"
	"time"

	"streamjoin/internal/des"
)

// Params describes the modeled interconnect.
type Params struct {
	// Bandwidth is the link bandwidth in bytes per second.
	Bandwidth float64
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// ExchangeOverhead is the fixed per-rendezvous cost (connection
	// handling, marshaling, MPI bookkeeping) charged to each transfer.
	ExchangeOverhead time.Duration
	// AsyncOverhead is the fixed cost charged to an asynchronous send.
	AsyncOverhead time.Duration
}

// DefaultParams models the paper's testbed: Gigabit Ethernet driven by
// LAM/MPI through mpiJava on ~933 MHz Pentium III nodes. The effective
// per-byte rate reflects the Java serialization and copy path of that stack
// (a few MB/s), not the wire: the paper's communication overheads (Figures
// 11, 12, 14) are dominated by that software cost plus per-exchange
// synchronization.
func DefaultParams() Params {
	return Params{
		Bandwidth:        3.5e6,
		Latency:          100 * time.Microsecond,
		ExchangeOverhead: 15 * time.Millisecond,
		AsyncOverhead:    500 * time.Microsecond,
	}
}

// Net is a simulated cluster network.
type Net struct {
	env *des.Env
	p   Params
}

// New returns a network with the given parameters bound to env.
func New(env *des.Env, p Params) *Net {
	if p.Bandwidth <= 0 {
		panic("simnet: bandwidth must be positive")
	}
	return &Net{env: env, p: p}
}

// Env returns the underlying simulation environment.
func (n *Net) Env() *des.Env { return n.env }

// transferTime is the sender-side occupancy of moving size bytes.
func (n *Net) transferTime(size int64) time.Duration {
	return n.p.ExchangeOverhead + time.Duration(float64(size)/n.p.Bandwidth*float64(time.Second))
}

func (n *Net) asyncTime(size int64) time.Duration {
	return n.p.AsyncOverhead + time.Duration(float64(size)/n.p.Bandwidth*float64(time.Second))
}

// Stats aggregates a node's resource usage in virtual time.
type Stats struct {
	Comm      time.Duration // blocked in Send/Recv (sync wait + transfer)
	Idle      time.Duration // explicit idle waits (epoch waiting)
	CPU       time.Duration // charged compute
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64
}

// Node is a simulated machine running a single-threaded process.
type Node struct {
	net   *Net
	name  string
	proc  *des.Proc
	stats Stats
}

// NewNode creates a node. Start must be called to run its process.
func (n *Net) NewNode(name string) *Node {
	return &Node{net: n, name: name}
}

// Name returns the node name.
func (nd *Node) Name() string { return nd.name }

// Start spawns the node's process executing fn.
func (nd *Node) Start(fn func(nd *Node)) {
	if nd.proc != nil {
		panic(fmt.Sprintf("simnet: node %s already started", nd.name))
	}
	nd.net.env.Spawn(nd.name, func(p *des.Proc) {
		nd.proc = p
		fn(nd)
	})
}

func (nd *Node) requireProc() *des.Proc {
	if nd.proc == nil {
		panic(fmt.Sprintf("simnet: node %s not started", nd.name))
	}
	return nd.proc
}

// Now reports virtual time since simulation start.
func (nd *Node) Now() time.Duration { return nd.net.env.Now().Duration() }

// Idle suspends the node for d, accounted as idle time.
func (nd *Node) Idle(d time.Duration) {
	if d <= 0 {
		return
	}
	nd.stats.Idle += d
	nd.requireProc().Sleep(d)
}

// IdleUntil suspends the node until virtual time t (since start), accounted
// as idle time.
func (nd *Node) IdleUntil(t time.Duration) {
	now := nd.Now()
	if t <= now {
		return
	}
	nd.Idle(t - now)
}

// Compute charges d of CPU time, advancing the virtual clock.
func (nd *Node) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	nd.stats.CPU += d
	nd.requireProc().Sleep(d)
}

// Stats returns a snapshot of the node's accumulated usage.
func (nd *Node) Stats() Stats { return nd.stats }

// Message is a payload with a logical wire size in bytes. The payload itself
// is passed by reference; only Size participates in timing.
type Message struct {
	Payload any
	Size    int64
}

// pendingSend is a sender parked on a connection direction.
type pendingSend struct {
	msg  Message
	proc *des.Proc
}

// half is one direction of a connection.
type half struct {
	net  *Net
	from *Node
	to   *Node

	sendq     []pendingSend // parked senders, FIFO
	recvArmed bool
	recvProc  *des.Proc
	inflight  []Message // delivered messages the receiver has not consumed
}

// Conn is a bidirectional rendezvous connection between two nodes. Use the
// Endpoint bound to each node for I/O.
type Conn struct {
	dir [2]*half
	a   *Node
	b   *Node
}

// Endpoint is one node's end of a Conn.
type Endpoint struct {
	send *half // direction owner -> peer
	recv *half // direction peer -> owner
	node *Node
}

// Connect establishes a connection between a and b and returns their
// endpoints.
func Connect(a, b *Node) (epA, epB *Endpoint) {
	if a.net != b.net {
		panic("simnet: nodes on different networks")
	}
	c := &Conn{a: a, b: b}
	c.dir[0] = &half{net: a.net, from: a, to: b}
	c.dir[1] = &half{net: a.net, from: b, to: a}
	return &Endpoint{send: c.dir[0], recv: c.dir[1], node: a},
		&Endpoint{send: c.dir[1], recv: c.dir[0], node: b}
}

// Send transmits m to the peer, blocking until a matching Recv pairs with it
// and the transfer completes. The blocked duration is accounted as
// communication time.
func (ep *Endpoint) Send(m Message) {
	h := ep.send
	nd := ep.node
	p := nd.requireProc()
	t0 := nd.Now()

	if h.recvArmed && len(h.sendq) == 0 {
		// Receiver is parked: transfer starts immediately.
		transfer := h.net.transferTime(m.Size)
		arrival := t0 + transfer + h.net.p.Latency
		h.inflight = append(h.inflight, m)
		h.recvArmed = false
		wakeAt(h.recvProc, arrival)
		p.Sleep(transfer)
	} else {
		// No receiver yet: park until a Recv pairs with us; the receiver
		// completes the transfer and wakes us when our payload is on the
		// wire.
		h.sendq = append(h.sendq, pendingSend{msg: m, proc: p})
		block(p)
	}
	nd.stats.Comm += nd.Now() - t0
	nd.stats.BytesSent += m.Size
	nd.stats.MsgsSent++
}

// Recv blocks until a message arrives on the endpoint and returns it. The
// blocked duration is accounted as communication time.
func (ep *Endpoint) Recv() Message {
	h := ep.recv
	nd := ep.node
	p := nd.requireProc()
	t0 := nd.Now()

	var m Message
	switch {
	case len(h.inflight) > 0:
		// A previous pairing already delivered a message.
		m = h.inflight[0]
		h.inflight = h.inflight[1:]
	case len(h.sendq) > 0:
		// A sender is parked: run the transfer now.
		ps := h.sendq[0]
		h.sendq = h.sendq[1:]
		transfer := h.net.transferTime(ps.msg.Size)
		wakeAt(ps.proc, t0+transfer)
		p.Sleep(transfer + h.net.p.Latency)
		m = ps.msg
	default:
		// Nobody is sending: arm the direction and park.
		if h.recvArmed {
			panic("simnet: concurrent Recv on one endpoint")
		}
		h.recvArmed = true
		h.recvProc = p
		block(p)
		if len(h.inflight) == 0 {
			panic("simnet: receiver woken without message")
		}
		m = h.inflight[0]
		h.inflight = h.inflight[1:]
	}
	nd.stats.Comm += nd.Now() - t0
	nd.stats.BytesRecv += m.Size
	nd.stats.MsgsRecv++
	return m
}

// Inbox is an unbounded asynchronous receive queue owned by a node.
type Inbox struct {
	owner *Node
	q     *des.Queue[Message]
}

// NewInbox creates an inbox owned by nd.
func NewInbox(nd *Node) *Inbox {
	return &Inbox{owner: nd, q: des.NewQueue[Message](nd.net.env)}
}

// SendAsync transmits m to inbox ib without waiting for the receiver. The
// sender is occupied for the transfer time; delivery happens Latency later.
func (nd *Node) SendAsync(ib *Inbox, m Message) {
	p := nd.requireProc()
	transfer := nd.net.asyncTime(m.Size)
	t0 := nd.Now()
	p.Sleep(transfer)
	nd.stats.Comm += nd.Now() - t0
	nd.stats.BytesSent += m.Size
	nd.stats.MsgsSent++
	env := nd.net.env
	env.At(env.Now().Add(nd.net.p.Latency), func() { ib.q.Put(m) })
}

// Recv blocks the owner until a message arrives; the wait is accounted as
// idle time (the collector waiting for results is not "communicating" in the
// paper's sense).
func (ib *Inbox) Recv() Message {
	nd := ib.owner
	t0 := nd.Now()
	m := ib.q.Get(nd.requireProc())
	nd.stats.Idle += nd.Now() - t0
	nd.stats.BytesRecv += m.Size
	nd.stats.MsgsRecv++
	return m
}

// RecvBefore is like Recv but gives up at absolute virtual time deadline.
func (ib *Inbox) RecvBefore(deadline time.Duration) (Message, bool) {
	nd := ib.owner
	t0 := nd.Now()
	m, ok := ib.q.GetBefore(nd.requireProc(), des.Time(deadline))
	nd.stats.Idle += nd.Now() - t0
	if ok {
		nd.stats.BytesRecv += m.Size
		nd.stats.MsgsRecv++
	}
	return m, ok
}

// Len reports queued messages.
func (ib *Inbox) Len() int { return ib.q.Len() }

func block(p *des.Proc) { p.Block() }

func wakeAt(p *des.Proc, t time.Duration) { p.WakeAt(des.Time(t)) }
