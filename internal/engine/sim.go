package engine

import (
	"time"

	"streamjoin/internal/simnet"
	"streamjoin/internal/wire"
)

// SimProc adapts a simnet.Node to the Proc interface.
type SimProc struct {
	nd *simnet.Node
}

// WrapNode adapts nd. The node must be started (its process function runs
// the protocol code using this wrapper).
func WrapNode(nd *simnet.Node) *SimProc { return &SimProc{nd: nd} }

// Name implements Proc.
func (p *SimProc) Name() string { return p.nd.Name() }

// Now implements Proc.
func (p *SimProc) Now() time.Duration { return p.nd.Now() }

// Idle implements Proc.
func (p *SimProc) Idle(d time.Duration) { p.nd.Idle(d) }

// IdleUntil implements Proc.
func (p *SimProc) IdleUntil(t time.Duration) { p.nd.IdleUntil(t) }

// Compute implements Proc; it advances the virtual clock.
func (p *SimProc) Compute(d time.Duration) { p.nd.Compute(d) }

// Stats implements Proc.
func (p *SimProc) Stats() Stats {
	s := p.nd.Stats()
	return Stats{
		Comm:      s.Comm,
		Idle:      s.Idle,
		CPU:       s.CPU,
		BytesSent: s.BytesSent,
		BytesRecv: s.BytesRecv,
		MsgsSent:  s.MsgsSent,
		MsgsRecv:  s.MsgsRecv,
	}
}

// SimConn adapts a simnet.Endpoint: messages travel by reference and are
// charged their logical wire size.
type SimConn struct {
	ep *simnet.Endpoint
}

// WrapEndpoint adapts ep.
func WrapEndpoint(ep *simnet.Endpoint) *SimConn { return &SimConn{ep: ep} }

// Send implements Conn.
func (c *SimConn) Send(m wire.Message) {
	c.ep.Send(simnet.Message{Payload: m, Size: m.WireSize()})
}

// Recv implements Conn.
func (c *SimConn) Recv() wire.Message {
	return c.ep.Recv().Payload.(wire.Message)
}

// SimInbox adapts a simnet.Inbox.
type SimInbox struct {
	ib *simnet.Inbox
}

// WrapInbox adapts ib.
func WrapInbox(ib *simnet.Inbox) *SimInbox { return &SimInbox{ib: ib} }

// Recv implements Inbox.
func (b *SimInbox) Recv() wire.Message {
	return b.ib.Recv().Payload.(wire.Message)
}

// TryRecv implements Inbox.
func (b *SimInbox) TryRecv() (wire.Message, bool) {
	m, ok := b.ib.TryRecv()
	if !ok {
		return nil, false
	}
	return m.Payload.(wire.Message), true
}

// RecvBefore implements Inbox.
func (b *SimInbox) RecvBefore(deadline time.Duration) (wire.Message, bool) {
	m, ok := b.ib.RecvBefore(deadline)
	if !ok {
		return nil, false
	}
	return m.Payload.(wire.Message), true
}

// SimAsyncSender posts from a node to a SimInbox.
type SimAsyncSender struct {
	nd *simnet.Node
	ib *simnet.Inbox
}

// NewSimAsyncSender returns an async sender from nd to ib.
func NewSimAsyncSender(nd *simnet.Node, ib *SimInbox) *SimAsyncSender {
	return &SimAsyncSender{nd: nd, ib: ib.ib}
}

// SendAsync implements AsyncSender.
func (s *SimAsyncSender) SendAsync(m wire.Message) {
	s.nd.SendAsync(s.ib, simnet.Message{Payload: m, Size: m.WireSize()})
}
