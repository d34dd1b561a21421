// Package engine abstracts the execution substrate so the master, slave and
// collector protocol code runs unchanged on two engines:
//
//   - the simulated engine (a thin adapter over simnet/des), where time is
//     virtual, Compute advances the clock by a modeled cost, and connections
//     carry messages by reference while charging their logical wire size; and
//   - the live engine, where processes are goroutines, time is wall-clock,
//     and connections are in-process rendezvous channels or real TCP streams
//     framed with the wire codec.
//
// Both engines account the same statistics: communication time (blocked in
// Send/Recv), idle time (explicit epoch waits), CPU (modeled cost), and
// byte/message counters.
//
// Paper correspondence: Proc and Conn realize the paper's execution model
// (§III) — single-threaded nodes of a shared-nothing cluster exchanging
// blocking MPI-style messages on persistent links — while the Runner /
// WorkerPool layer adds the per-core join workers of a multi-prober slave
// (the multicore follow-up direction, arXiv:1804.09324): W serial lanes
// behind a fork/join barrier, with per-worker stats folding into the
// slave's aggregate so the cluster-level accounting is unchanged.
package engine

import (
	"time"

	"streamjoin/internal/wire"
)

// Stats aggregates a process's resource usage. BytesSent/BytesRecv are the
// paper-logical message sizes (wire.Message.WireSize), which all
// communication-overhead metrics use; WireBytesSent/WireBytesRecv are the
// physical bytes a live TCP transport put on the wire (frame headers
// included, zero on the simulated engine and in-process pipes). Batched
// framing shrinks the physical side while leaving the logical side intact.
type Stats struct {
	Comm      time.Duration
	Idle      time.Duration
	CPU       time.Duration
	BytesSent int64
	BytesRecv int64
	MsgsSent  int64
	MsgsRecv  int64

	WireFramesSent int64
	WireBytesSent  int64
	WireFramesRecv int64
	WireBytesRecv  int64

	// Downstream pair-sink counters (SocketSink; zero without one).
	// SinkStall is the time join workers spent blocked in Emit on the
	// sink's bounded queue — the backpressure a slow downstream consumer
	// exerts on the join.
	SinkPairs int64
	SinkBytes int64
	SinkStall time.Duration
	// SinkQueryPairs breaks SinkPairs down by producing query id. It stays
	// nil until a sink ships pairs; a single-query run charges everything
	// under query 0.
	SinkQueryPairs map[int32]int64

	// Buddy-replication counters (crash-recovery window replication; zero
	// with Replicate off). Sent counts cover the buddy-stream deltas a slave
	// ships, Recv the ones it applies as the buddy of others; a move's
	// deltas are counted under Xfer, by its supplier only.
	ReplDeltasSent int64
	ReplTuplesSent int64
	ReplDeltasRecv int64
	ReplTuplesRecv int64

	// State-movement counters. XferStall is the time the slave loop spent
	// blocked on the epoch barrier moving state — extracting, sending, or
	// waiting for transfer messages — the direct per-epoch cost a
	// reorganization charges the join. XferStallMax is the worst
	// single-epoch stall: the pause a reorganization inserts into the epoch
	// cadence, which streaming a move as installments exists to bound (total
	// stall follows the state moved; the maximum follows the installment
	// size). XferChunks/XferTuples count the WindowDeltas a supplier ships
	// for its moves — installments and closing deltas — and the tuples they
	// carried (backlog included); buddy-stream deltas count under Repl.
	XferStall    time.Duration
	XferStallMax time.Duration
	XferChunks   int64
	XferTuples   int64
}

// Sub returns s minus t field-by-field (measurement-interval isolation).
// The per-query map is subtracted key-wise into a fresh map, so neither
// operand is aliased or mutated.
func (s Stats) Sub(t Stats) Stats {
	var byQuery map[int32]int64
	if s.SinkQueryPairs != nil || t.SinkQueryPairs != nil {
		byQuery = make(map[int32]int64, len(s.SinkQueryPairs))
		for q, v := range s.SinkQueryPairs {
			byQuery[q] = v
		}
		for q, v := range t.SinkQueryPairs {
			if d := byQuery[q] - v; d != 0 {
				byQuery[q] = d
			} else {
				delete(byQuery, q)
			}
		}
	}
	return Stats{
		SinkQueryPairs: byQuery,

		Comm:      s.Comm - t.Comm,
		Idle:      s.Idle - t.Idle,
		CPU:       s.CPU - t.CPU,
		BytesSent: s.BytesSent - t.BytesSent,
		BytesRecv: s.BytesRecv - t.BytesRecv,
		MsgsSent:  s.MsgsSent - t.MsgsSent,
		MsgsRecv:  s.MsgsRecv - t.MsgsRecv,

		WireFramesSent: s.WireFramesSent - t.WireFramesSent,
		WireBytesSent:  s.WireBytesSent - t.WireBytesSent,
		WireFramesRecv: s.WireFramesRecv - t.WireFramesRecv,
		WireBytesRecv:  s.WireBytesRecv - t.WireBytesRecv,

		SinkPairs: s.SinkPairs - t.SinkPairs,
		SinkBytes: s.SinkBytes - t.SinkBytes,
		SinkStall: s.SinkStall - t.SinkStall,

		ReplDeltasSent: s.ReplDeltasSent - t.ReplDeltasSent,
		ReplTuplesSent: s.ReplTuplesSent - t.ReplTuplesSent,
		ReplDeltasRecv: s.ReplDeltasRecv - t.ReplDeltasRecv,
		ReplTuplesRecv: s.ReplTuplesRecv - t.ReplTuplesRecv,

		// A maximum is not interval-decomposable; keep the run-wide peak,
		// which is the figure the stall bound is about.
		XferStall:    s.XferStall - t.XferStall,
		XferStallMax: s.XferStallMax,
		XferChunks:   s.XferChunks - t.XferChunks,
		XferTuples:   s.XferTuples - t.XferTuples,
	}
}

// Proc is a single-threaded execution context (one node's process).
type Proc interface {
	// Name identifies the process (diagnostics).
	Name() string
	// Now is the time since the run started.
	Now() time.Duration
	// Idle suspends the process for d, accounted as idle time.
	Idle(d time.Duration)
	// IdleUntil suspends until time t since start, accounted as idle time.
	IdleUntil(t time.Duration)
	// Compute charges d of modeled CPU cost. The simulated engine advances
	// the virtual clock; the live engine only accounts (the real work has
	// already consumed wall time).
	Compute(d time.Duration)
	// Stats returns a snapshot of accumulated usage.
	Stats() Stats
}

// Conn is a blocking bidirectional connection in the style of MPI
// send/receive over a persistent link: Send does not complete before the
// peer's Recv pairs with it.
type Conn interface {
	Send(m wire.Message)
	Recv() wire.Message
}

// Inbox is an asynchronous many-to-one receive queue (the collector path).
type Inbox interface {
	// Recv blocks until a message arrives.
	Recv() wire.Message
	// RecvBefore blocks until a message arrives or the absolute time
	// deadline (since run start) passes.
	RecvBefore(deadline time.Duration) (wire.Message, bool)
}

// AsyncSender posts messages to an Inbox without waiting for the receiver.
type AsyncSender interface {
	SendAsync(m wire.Message)
}

// BufferedSender is implemented by Conns that can defer a send into a shared
// physical frame (batched live TCP). A buffered message is guaranteed to
// reach the peer only after Flush — callers must flush every conn they
// buffered on before blocking on any Recv, or the protocol can deadlock.
type BufferedSender interface {
	SendBuffered(m wire.Message)
}

// Flusher is implemented by transports that coalesce writes.
type Flusher interface {
	Flush()
}

// SendBuffered defers m on c when the transport supports it and sends
// immediately otherwise, so protocol code stays engine-agnostic.
func SendBuffered(c Conn, m wire.Message) {
	if b, ok := c.(BufferedSender); ok {
		b.SendBuffered(m)
		return
	}
	c.Send(m)
}

// Flush pushes any buffered messages of v (a Conn or AsyncSender) to the
// peer; transports without write buffering ignore it.
func Flush(v any) {
	if f, ok := v.(Flusher); ok {
		f.Flush()
	}
}
