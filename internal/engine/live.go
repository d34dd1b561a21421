package engine

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streamjoin/internal/wire"
)

// LiveEnv anchors wall-clock time for a set of live processes.
type LiveEnv struct {
	start atomic.Pointer[time.Time]
}

// NewLiveEnv returns an environment whose clock starts now.
func NewLiveEnv() *LiveEnv {
	e := &LiveEnv{}
	e.SetNow(0)
	return e
}

// SetNow moves the environment's time zero so that Now reads t at this
// instant. A TCP cluster has one clock, the master's: a slave sets its own
// to the master's reading carried by the anchor batch, so tuple timestamps,
// window expiry and epoch slots all share one time base. Safe while other
// goroutines read the clock.
func (e *LiveEnv) SetNow(t time.Duration) {
	zero := time.Now().Add(-t)
	e.start.Store(&zero)
}

// Now reports the time since the environment's time zero.
func (e *LiveEnv) Now() time.Duration { return time.Since(*e.start.Load()) }

// LiveProc is a goroutine-backed Proc. Stats are mutex-guarded because
// monitors read them from other goroutines.
type LiveProc struct {
	env  *LiveEnv
	name string

	mu    sync.Mutex
	stats Stats
}

// NewProc creates a live process context; the caller runs the protocol code
// on its own goroutine.
func (e *LiveEnv) NewProc(name string) *LiveProc {
	return &LiveProc{env: e, name: name}
}

// Name implements Proc.
func (p *LiveProc) Name() string { return p.name }

// Now implements Proc.
func (p *LiveProc) Now() time.Duration { return p.env.Now() }

// Idle implements Proc.
func (p *LiveProc) Idle(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(d)
	p.mu.Lock()
	p.stats.Idle += d
	p.mu.Unlock()
}

// IdleUntil implements Proc.
func (p *LiveProc) IdleUntil(t time.Duration) { p.Idle(t - p.Now()) }

// Compute implements Proc: live work has already consumed wall time, so the
// modeled cost is only accounted.
func (p *LiveProc) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	p.mu.Lock()
	p.stats.CPU += d
	p.mu.Unlock()
}

// Stats implements Proc. The per-query sink map is deep-copied so the
// snapshot cannot race later accounting.
func (p *LiveProc) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.stats
	if p.stats.SinkQueryPairs != nil {
		out.SinkQueryPairs = make(map[int32]int64, len(p.stats.SinkQueryPairs))
		for q, v := range p.stats.SinkQueryPairs {
			out.SinkQueryPairs[q] = v
		}
	}
	return out
}

// addIdle accounts already-elapsed idle time without sleeping (worker procs
// fold their idle time into the parent this way).
func (p *LiveProc) addIdle(d time.Duration) {
	p.mu.Lock()
	p.stats.Idle += d
	p.mu.Unlock()
}

func (p *LiveProc) addComm(d time.Duration, sentB, recvB int64, sent, recv int64) {
	p.mu.Lock()
	p.stats.Comm += d
	p.stats.BytesSent += sentB
	p.stats.BytesRecv += recvB
	p.stats.MsgsSent += sent
	p.stats.MsgsRecv += recv
	p.mu.Unlock()
}

func (p *LiveProc) addWire(sentF, sentB, recvF, recvB int64) {
	if sentF == 0 && sentB == 0 && recvF == 0 && recvB == 0 {
		return
	}
	p.mu.Lock()
	p.stats.WireFramesSent += sentF
	p.stats.WireBytesSent += sentB
	p.stats.WireFramesRecv += recvF
	p.stats.WireBytesRecv += recvB
	p.mu.Unlock()
}

// addSink folds downstream pair-sink activity into the process stats,
// attributed to the producing query. The SocketSink's writer goroutine adds
// pairs/bytes; join workers add stall time from Emit.
func (p *LiveProc) addSink(query int32, pairs, bytes int64, stall time.Duration) {
	p.mu.Lock()
	p.stats.SinkPairs += pairs
	p.stats.SinkBytes += bytes
	p.stats.SinkStall += stall
	if pairs != 0 {
		if p.stats.SinkQueryPairs == nil {
			p.stats.SinkQueryPairs = make(map[int32]int64)
		}
		p.stats.SinkQueryPairs[query] += pairs
	}
	p.mu.Unlock()
}

// AddRepl folds buddy-replication activity into the process stats: deltas
// and tuples shipped to the buddy (the owner-side epoch flush) and applied
// from other owners (the buddy-side replica readers).
func (p *LiveProc) AddRepl(deltasSent, tuplesSent, deltasRecv, tuplesRecv int64) {
	p.mu.Lock()
	p.stats.ReplDeltasSent += deltasSent
	p.stats.ReplTuplesSent += tuplesSent
	p.stats.ReplDeltasRecv += deltasRecv
	p.stats.ReplTuplesRecv += tuplesRecv
	p.mu.Unlock()
}

// AddXfer folds state-movement activity into the process stats: transfer
// messages shipped (supplier side) and the time the slave loop spent blocked
// moving state at the epoch barrier (both sides).
func (p *LiveProc) AddXfer(chunks, tuples int64, stall time.Duration) {
	p.mu.Lock()
	p.stats.XferChunks += chunks
	p.stats.XferTuples += tuples
	p.stats.XferStall += stall
	if stall > p.stats.XferStallMax {
		p.stats.XferStallMax = stall
	}
	p.mu.Unlock()
}

// pipeConn is one end of an in-process rendezvous connection: unbuffered
// channels give MPI-like blocking semantics.
type pipeConn struct {
	p    *LiveProc
	send chan<- wire.Message
	recv <-chan wire.Message
}

// Pipe connects two live processes with an in-process bidirectional
// rendezvous connection.
func Pipe(a, b *LiveProc) (Conn, Conn) {
	ab := make(chan wire.Message)
	ba := make(chan wire.Message)
	return &pipeConn{p: a, send: ab, recv: ba},
		&pipeConn{p: b, send: ba, recv: ab}
}

// Send implements Conn. The rendezvous handoff transfers ownership of m to
// the receiver, which may mutate it in place (the consumer of a state
// movement does), so the size must be read before the channel send.
func (c *pipeConn) Send(m wire.Message) {
	t0 := c.p.Now()
	size := m.WireSize()
	c.send <- m
	c.p.addComm(c.p.Now()-t0, size, 0, 1, 0)
}

// Recv implements Conn.
func (c *pipeConn) Recv() wire.Message {
	t0 := c.p.Now()
	m := <-c.recv
	c.p.addComm(c.p.Now()-t0, 0, m.WireSize(), 0, 1)
	return m
}

// TCPError wraps an I/O failure on a live TCP connection. The Conn interface
// is error-free (matching the blocking MPI model), so TCP adapters panic
// with a TCPError; node loops in the live binaries recover it and shut the
// node down.
type TCPError struct {
	Op  string
	Err error
}

func (e *TCPError) Error() string { return fmt.Sprintf("tcp %s: %v", e.Op, e.Err) }

func (e *TCPError) Unwrap() error { return e.Err }

// CheckPeer panics with a TCPError, as a failed Send does, when c is a live
// TCP conn whose peer has already closed or reset it; on any other conn it
// does nothing. A crashed process's sockets close with a FIN, and a Send
// into such a socket still succeeds — only the reset that answers it tells
// the kernel the peer is gone — so a sender that could hand the message's
// contents to someone else checks before it sends. The check peeks without
// blocking and reads nothing: a message already waiting keeps its place.
// Only the conn's reader may call it.
func CheckPeer(c Conn) {
	if tc, ok := c.(*tcpConn); ok {
		if err := peerGone(tc.c); err != nil {
			panic(&TCPError{Op: "send", Err: err})
		}
	}
}

// errPeerClosed is peerGone's verdict on a connection whose peer closed its
// end.
var errPeerClosed = errors.New("peer closed the connection")

// tcpConn frames wire messages over a net.Conn through a reused-buffer
// FrameWriter/FrameReader pair. Send always flushes (the protocol's MPI-like
// turnarounds depend on it); SendBuffered defers the message into a shared
// frame until the auto-flush byte threshold trips, Flush is called, or the
// next Recv on this conn forces the pending frame out.
type tcpConn struct {
	p  *LiveProc
	c  net.Conn
	fr *wire.FrameReader
	fw *wire.FrameWriter
	w  *bufio.Writer

	// Last-sampled framing stats, for delta accounting into LiveProc.
	sentFrames, sentBytes int64
	recvFrames, recvBytes int64
}

// WrapTCPBatched adapts a net.Conn for live cluster deployment: messages
// passed to SendBuffered coalesce into one frame until flushBytes of encoded
// payload are pending (flushBytes <= 0: only Flush, Send and Recv push them
// out).
func WrapTCPBatched(p *LiveProc, c net.Conn, flushBytes int) Conn {
	w := bufio.NewWriterSize(c, 1<<16)
	return &tcpConn{
		p:  p,
		c:  c,
		fr: wire.NewFrameReader(bufio.NewReaderSize(c, 1<<16)),
		fw: wire.NewFrameWriter(w, flushBytes),
		w:  w,
	}
}

// accountWire folds the framing layer's physical counters into the process
// stats as deltas since the previous sample.
func (c *tcpConn) accountWire() {
	sf, _, sb := c.fw.Stats()
	rf, _, rb := c.fr.Stats()
	c.p.addWire(sf-c.sentFrames, sb-c.sentBytes, rf-c.recvFrames, rb-c.recvBytes)
	c.sentFrames, c.sentBytes = sf, sb
	c.recvFrames, c.recvBytes = rf, rb
}

// flushPending pushes any pending frame and the bufio layer to the socket.
func (c *tcpConn) flushPending() {
	if err := c.fw.Flush(); err != nil {
		panic(&TCPError{Op: "send", Err: err})
	}
	if err := c.w.Flush(); err != nil {
		panic(&TCPError{Op: "flush", Err: err})
	}
	c.accountWire()
}

// Send implements Conn: the message and anything buffered before it go out
// immediately.
func (c *tcpConn) Send(m wire.Message) {
	t0 := c.p.Now()
	if err := c.fw.Append(m); err != nil {
		panic(&TCPError{Op: "send", Err: err})
	}
	c.flushPending()
	c.p.addComm(c.p.Now()-t0, m.WireSize(), 0, 1, 0)
}

// SendBuffered implements BufferedSender: the message joins the pending
// frame (flushed by threshold, Flush, or the next Recv).
func (c *tcpConn) SendBuffered(m wire.Message) {
	t0 := c.p.Now()
	if err := c.fw.Append(m); err != nil {
		panic(&TCPError{Op: "send", Err: err})
	}
	// Push any frame the byte threshold forced out past bufio; a no-op
	// while the message is still pending in the FrameWriter.
	if err := c.w.Flush(); err != nil {
		panic(&TCPError{Op: "flush", Err: err})
	}
	c.accountWire()
	c.p.addComm(c.p.Now()-t0, m.WireSize(), 0, 1, 0)
}

// Flush implements Flusher.
func (c *tcpConn) Flush() { c.flushPending() }

// Recv implements Conn. Any buffered outbound messages are flushed first so
// a request buffered on this conn cannot deadlock against its own response.
func (c *tcpConn) Recv() wire.Message {
	if c.fw.PendingMessages() > 0 || c.w.Buffered() > 0 {
		c.flushPending()
	}
	t0 := c.p.Now()
	m, err := c.fr.Next()
	if err != nil {
		panic(&TCPError{Op: "recv", Err: err})
	}
	c.accountWire()
	c.p.addComm(c.p.Now()-t0, 0, m.WireSize(), 0, 1)
	return m
}

// LiveInbox is a buffered asynchronous queue for the collector path.
type LiveInbox struct {
	p  *LiveProc
	ch chan wire.Message
}

// NewLiveInbox returns an inbox owned by p.
func NewLiveInbox(p *LiveProc, capacity int) *LiveInbox {
	if capacity < 1 {
		capacity = 1024
	}
	return &LiveInbox{p: p, ch: make(chan wire.Message, capacity)}
}

// Recv implements Inbox.
func (b *LiveInbox) Recv() wire.Message {
	t0 := b.p.Now()
	m := <-b.ch
	b.p.mu.Lock()
	b.p.stats.Idle += b.p.Now() - t0
	b.p.stats.BytesRecv += m.WireSize()
	b.p.stats.MsgsRecv++
	b.p.mu.Unlock()
	return m
}

// RecvBefore implements Inbox.
func (b *LiveInbox) RecvBefore(deadline time.Duration) (wire.Message, bool) {
	t0 := b.p.Now()
	wait := deadline - t0
	if wait < 0 {
		wait = 0
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case m := <-b.ch:
		b.p.mu.Lock()
		b.p.stats.Idle += b.p.Now() - t0
		b.p.stats.BytesRecv += m.WireSize()
		b.p.stats.MsgsRecv++
		b.p.mu.Unlock()
		return m, true
	case <-timer.C:
		b.p.mu.Lock()
		b.p.stats.Idle += b.p.Now() - t0
		b.p.mu.Unlock()
		return nil, false
	}
}

// LiveAsyncSender posts from a live process to a LiveInbox.
type LiveAsyncSender struct {
	p  *LiveProc
	ib *LiveInbox
}

// NewLiveAsyncSender returns an async sender from p to ib.
func NewLiveAsyncSender(p *LiveProc, ib *LiveInbox) *LiveAsyncSender {
	return &LiveAsyncSender{p: p, ib: ib}
}

// SendAsync implements AsyncSender: it blocks only when the inbox is full.
// Like pipeConn.Send, the channel send transfers ownership of m, so the
// size is read before the handoff.
func (s *LiveAsyncSender) SendAsync(m wire.Message) {
	t0 := s.p.Now()
	size := m.WireSize()
	s.ib.ch <- m
	s.p.addComm(s.p.Now()-t0, size, 0, 1, 0)
}
