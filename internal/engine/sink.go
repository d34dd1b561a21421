package engine

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"streamjoin/internal/join"
	"streamjoin/internal/wire"
)

// SocketSink ships a slave's materialized join pairs to an external TCP
// consumer as wire.PairBatch messages over the standard batched framing,
// closing the pipeline the paper leaves at the collector: source → master →
// slaves → downstream consumer. Each slave dials the consumer directly, so
// join output never funnels through the master. Every query sharing this
// consumer emits over the one connection: ForQuery hands out per-query
// join.Sinks that stamp their query id into each PairBatch while reusing
// the sink's writer, queue, and recycle pool.
//
// Concurrency and backpressure: Emit (of a ForQuery sink, called by every
// join worker of the slave, see join.Sink) hands the pair buffer to a
// single writer goroutine through a bounded in-flight queue. While the
// queue has room, Emit is a non-blocking channel send; when the consumer
// falls behind and the queue fills, Emit blocks — the join workers stall
// instead of the sink dropping output or buffering unboundedly. The stalled
// time is accounted as Stats.SinkStall on the slave's process.
//
// Buffer recycling: the writer returns each encoded buffer through a
// recycle queue, and Emit hands a recycled buffer back to the emitting
// module, so the join's zero-allocation steady state survives the sink as
// long as the queue is keeping up (asserted by TestSocketSinkEmitNoAllocs).
//
// Failure: a write error (consumer gone) enters reconnect mode: the dead
// connection is closed, a background goroutine redials with backoff, and
// meanwhile the writer keeps draining the queue — batches are retained in a
// bounded spool (estimated at the encoded pair size) and replayed on
// reconnection, or counted dropped once the spool cap is hit, so Emit never
// deadlocks the slave against a dead consumer. Everything encoded but not
// yet flushed when the conn died is reclassified from shipped to dropped,
// so delivered + dropped always equals emitted exactly. Emit backpressure is unchanged: the bounded queue
// still stalls the join when the consumer is merely slow — the spool only
// engages while the connection is down.
//
// Termination contract: like ChanSink, the sink cannot know when the run
// ends. Call Close only after the engine has fully stopped (no join worker
// can still Emit); Close flushes everything pending, closes the connection,
// and reports a write error, or a consumer still gone.
type SocketSink struct {
	p     *LiveProc // stats target (nil in tests)
	slave int32

	conn io.WriteCloser
	w    *bufio.Writer
	fw   *wire.FrameWriter

	q       chan sinkBatch
	recycle chan []join.Pair
	wg      sync.WaitGroup

	seq atomic.Int64 // emission sequence, stamped into PairBatch.Epoch

	// reconnect configuration
	redial   func() (io.WriteCloser, error)
	spoolCap int64

	// writer-goroutine state
	enc       []wire.OutPair // reused encode scratch
	pb        wire.PairBatch // reused message shell
	lastBytes int64          // framing bytes already folded into the stats
	unflushed int64          // pairs encoded since the last successful flush
	down      bool           // disconnected, redialer in flight
	spooled   []sinkBatch    // batches retained for replay on reconnect
	spoolLen  int64          // estimated encoded bytes of spooled

	redialc chan io.WriteCloser // redialer → writer hand-off
	bye     chan struct{}       // closed by Close; stops the redialer

	pairs      atomic.Int64
	bytes      atomic.Int64
	dropped    atomic.Int64
	stall      atomic.Int64 // ns
	reconnects atomic.Int64
}

// sinkBatch is one Emit hand-off in flight to the writer goroutine. A
// batch with a non-nil barrier carries no pairs: the writer flushes the
// connection and signals, realizing FlushBarrier.
type sinkBatch struct {
	query   int32
	group   int32
	epoch   int64
	pairs   []join.Pair
	barrier chan<- struct{}
}

// DefaultSinkQueue is the in-flight queue depth when the caller passes 0:
// deep enough to ride out consumer scheduling hiccups, shallow enough that a
// stalled consumer backpressures the join within a few rounds.
const DefaultSinkQueue = 64

// sinkFlushBytes is the FrameWriter auto-flush threshold: pair batches
// coalesce into shared physical frames until this many encoded bytes are
// pending (the writer also flushes whenever its queue drains, which bounds
// delivery latency without a timer).
const sinkFlushBytes = 32 << 10

// maxPairsPerMsg caps the pairs encoded into one PairBatch message so a
// single message can never exceed wire.MaxFrameBytes (a giant round is
// split into several messages sharing the group and epoch stamp).
const maxPairsPerMsg = 1 << 20

// DefaultSinkSpool is the reconnect spool cap when SinkOptions.SpoolBytes
// is 0: roughly 60k pairs of retained output while the consumer is down.
const DefaultSinkSpool = 1 << 20

// spoolBatchOverhead is the estimated per-batch framing overhead charged
// against the spool cap on top of the encoded pair size.
const spoolBatchOverhead = 32

// SinkOptions configures NewSocketSinkWith.
type SinkOptions struct {
	// Queue is the bounded in-flight depth (0 = DefaultSinkQueue).
	Queue int
	// SpoolBytes caps the estimated encoded size of batches retained while
	// the connection is down (0 = DefaultSinkSpool). Batches beyond the cap
	// are counted dropped.
	SpoolBytes int64
	// Redial reopens the consumer connection after a write failure
	// (required).
	Redial func() (io.WriteCloser, error)
}

// NewSocketSinkWith returns a running sink over conn for the given slave ID;
// p, when non-nil, receives the pairs/bytes/stall accounting.
func NewSocketSinkWith(p *LiveProc, conn io.WriteCloser, slave int32, o SinkOptions) *SocketSink {
	if o.Redial == nil {
		panic("engine: a SocketSink needs a Redial")
	}
	s := newSocketSink(p, conn, slave, o.Queue)
	s.redial = o.Redial
	s.spoolCap = o.SpoolBytes
	if s.spoolCap <= 0 {
		s.spoolCap = DefaultSinkSpool
	}
	s.wg.Add(1)
	go s.writer()
	return s
}

// newSocketSink builds the sink without starting the writer goroutine
// (tests pump the queue deterministically via writeNext).
func newSocketSink(p *LiveProc, conn io.WriteCloser, slave int32, queue int) *SocketSink {
	if queue <= 0 {
		queue = DefaultSinkQueue
	}
	w := bufio.NewWriterSize(conn, 1<<16)
	return &SocketSink{
		p:       p,
		slave:   slave,
		conn:    conn,
		w:       w,
		fw:      wire.NewFrameWriter(w, sinkFlushBytes),
		q:       make(chan sinkBatch, queue),
		recycle: make(chan []join.Pair, queue+1),
		redialc: make(chan io.WriteCloser, 1),
		bye:     make(chan struct{}),
	}
}

// ForQuery returns the join.Sink through which query emits over this
// sink's connection, queue, and recycle pool — the sink's one entry point:
// N queries sharing one consumer connection cost one writer goroutine and
// one queue, and their batches interleave as PairBatch messages, each
// carrying its query id.
func (s *SocketSink) ForQuery(query int32) join.Sink {
	return &querySink{s: s, query: query}
}

// querySink is ForQuery's adapter: a SocketSink view that stamps a fixed
// query id on every emission.
type querySink struct {
	s     *SocketSink
	query int32
}

// Emit implements join.Sink: it transfers ownership of pairs to the writer
// goroutine and hands back a recycled buffer when one is available. It
// blocks only when the in-flight queue is full (downstream backpressure).
// Safe for concurrent use by all of a slave's join workers.
func (qs *querySink) Emit(group int32, pairs []join.Pair) []join.Pair {
	return qs.s.emit(qs.query, group, pairs)
}

func (s *SocketSink) emit(query, group int32, pairs []join.Pair) []join.Pair {
	b := sinkBatch{query: query, group: group, epoch: s.seq.Add(1), pairs: pairs}
	select {
	case s.q <- b: // fast path: queue has room, no stall
	default:
		t0 := time.Now()
		s.q <- b
		d := time.Since(t0)
		s.stall.Add(d.Nanoseconds())
		if s.p != nil {
			s.p.addSink(query, 0, 0, d)
		}
	}
	select {
	case r := <-s.recycle:
		return r
	default:
		return nil
	}
}

// writer is the connection's single writer goroutine: it encodes queued
// batches, recycles their buffers, and flushes whenever the queue drains.
// While disconnected it also waits on the redialer's hand-off, so the queue
// keeps draining (into the spool) and Emit never blocks on a dead consumer.
func (s *SocketSink) writer() {
	defer s.wg.Done()
	for {
		if s.down {
			select {
			case c := <-s.redialc:
				s.attach(c)
			case b, ok := <-s.q:
				if !ok {
					s.dropSpooled()
					return
				}
				s.writeBatch(b)
			}
			continue
		}
		b, ok := <-s.q
		if !ok {
			return
		}
		s.writeBatch(b)
	}
}

// writeNext processes one queued batch synchronously (test seam: the alloc
// and framing tests pump the queue deterministically instead of racing a
// goroutine). It reports false when the queue is empty.
func (s *SocketSink) writeNext() bool {
	select {
	case b := <-s.q:
		s.writeBatch(b)
		return true
	default:
		return false
	}
}

// writeBatch encodes one batch, recycles its buffer, and flushes if the
// queue is idle. Disconnected sinks spool or drop instead of encoding.
func (s *SocketSink) writeBatch(b sinkBatch) {
	if b.barrier != nil {
		if !s.down {
			if err := s.flush(); err != nil {
				s.wireFail()
			}
		}
		// While disconnected the barrier degrades to a no-op: its pairs sit
		// in the spool (or are accounted dropped), and blocking the epoch
		// schedule on a dead consumer would wedge the whole slave.
		close(b.barrier)
		return
	}
	if s.down {
		s.spoolBatch(b)
		return
	}
	encoded, err := s.write(b)
	if err != nil {
		// wireFail reclassifies everything unflushed (including this batch's
		// encoded prefix) as dropped; the unencoded tail goes to the spool,
		// which owns the buffer.
		s.wireFail()
		s.spoolBatch(sinkBatch{query: b.query, group: b.group, epoch: b.epoch, pairs: b.pairs[encoded:]})
		return
	}
	if len(s.q) == 0 {
		if err := s.flush(); err != nil {
			s.wireFail()
		}
	}
	select {
	case s.recycle <- b.pairs:
	default: // recycle queue full: leave the buffer to the GC
	}
}

// write encodes b as one or more PairBatch messages into the frame writer,
// reporting how many pairs were consumed before any error.
func (s *SocketSink) write(b sinkBatch) (int, error) {
	consumed := 0
	for pairs := b.pairs; len(pairs) > 0; {
		n := len(pairs)
		if n > maxPairsPerMsg {
			n = maxPairsPerMsg
		}
		s.enc = s.enc[:0]
		for _, p := range pairs[:n] {
			s.enc = append(s.enc, wire.OutPair{Probe: p.Probe, Stored: p.Stored})
		}
		s.pb = wire.PairBatch{Slave: s.slave, Query: b.query, Group: b.group, Epoch: b.epoch, Pairs: s.enc}
		if err := s.fw.Append(&s.pb); err != nil {
			return consumed, err
		}
		pairs = pairs[n:]
		consumed += n
		s.unflushed += int64(n)
		s.account(b.query, int64(n))
	}
	return consumed, nil
}

// flush pushes the pending frame and the bufio layer to the connection.
func (s *SocketSink) flush() error {
	if err := s.fw.Flush(); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	s.unflushed = 0
	s.account(0, 0)
	return nil
}

// account folds n freshly encoded pairs (for the given query) plus any new
// framing bytes into the counters and the process stats (writer goroutine
// only).
func (s *SocketSink) account(query int32, n int64) {
	s.pairs.Add(n)
	_, _, bytes := s.fw.Stats()
	delta := bytes - s.lastBytes
	s.lastBytes = bytes
	s.bytes.Add(delta)
	if s.p != nil && (n != 0 || delta != 0) {
		s.p.addSink(query, n, delta, 0)
	}
}

// wireFail handles a connection-level write error: close the dead conn,
// reclassify the pairs it swallowed, and hand the problem to the redialer.
func (s *SocketSink) wireFail() {
	// Everything encoded since the last successful flush never reached the
	// consumer: move it from shipped to dropped, keeping
	// delivered + dropped == emitted exact. (The per-process stats are not
	// rewound; they remain a producer-side view.)
	s.pairs.Add(-s.unflushed)
	s.dropped.Add(s.unflushed)
	s.unflushed = 0
	s.down = true
	s.conn.Close()
	go s.redialer()
}

// spoolBatch retains b for replay after reconnection, or counts it dropped
// once the estimated spool cap is exceeded. The spool owns b's buffer until
// replay recycles it.
func (s *SocketSink) spoolBatch(b sinkBatch) {
	est := int64(len(b.pairs))*wire.PairEncSize + spoolBatchOverhead
	if len(b.pairs) == 0 || s.spoolLen+est > s.spoolCap {
		s.dropped.Add(int64(len(b.pairs)))
		select {
		case s.recycle <- b.pairs:
		default:
		}
		return
	}
	s.spooled = append(s.spooled, b)
	s.spoolLen += est
}

// dropSpooled accounts every still-spooled batch as dropped (sink closed
// before the consumer came back).
func (s *SocketSink) dropSpooled() {
	for _, b := range s.spooled {
		s.dropped.Add(int64(len(b.pairs)))
	}
	s.spooled, s.spoolLen = nil, 0
}

// attach swaps in a fresh connection and replays the spool through the
// normal write path. A replay failure re-enters reconnect mode with the
// unwritten tail respooled.
func (s *SocketSink) attach(c io.WriteCloser) {
	s.conn = c
	s.w = bufio.NewWriterSize(c, 1<<16)
	s.fw = wire.NewFrameWriter(s.w, sinkFlushBytes)
	s.lastBytes = 0
	s.down = false
	s.reconnects.Add(1)
	sp := s.spooled
	s.spooled, s.spoolLen = nil, 0
	for _, b := range sp {
		if s.down {
			s.spoolBatch(b)
			continue
		}
		encoded, err := s.write(b)
		if err != nil {
			s.wireFail()
			s.spoolBatch(sinkBatch{query: b.query, group: b.group, epoch: b.epoch, pairs: b.pairs[encoded:]})
			continue
		}
		select {
		case s.recycle <- b.pairs:
		default:
		}
	}
	if !s.down {
		if err := s.flush(); err != nil {
			s.wireFail()
		}
	}
}

// redialer reopens the consumer connection with capped exponential backoff,
// handing the conn to the writer (or giving up when the sink closes).
func (s *SocketSink) redialer() {
	backoff := 50 * time.Millisecond
	for {
		c, err := s.redial()
		if err == nil {
			select {
			case s.redialc <- c:
			case <-s.bye:
				c.Close()
			}
			return
		}
		select {
		case <-s.bye:
			return
		case <-time.After(backoff):
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
}

// Stats reports pairs shipped, physical bytes written (frame headers
// included), cumulative Emit stall time, and pairs dropped after a failure.
func (s *SocketSink) Stats() (pairs, bytes int64, stall time.Duration, dropped int64) {
	return s.pairs.Load(), s.bytes.Load(), time.Duration(s.stall.Load()), s.dropped.Load()
}

// Reconnects reports how many times the sink re-established its consumer
// connection.
func (s *SocketSink) Reconnects() int64 { return s.reconnects.Load() }

// FlushBarrier blocks until every batch emitted before the call has been
// encoded and flushed to the connection (or spooled while it is down): once
// it returns, the kernel holds every pair the join has produced so far, so
// even an abrupt process death cannot lose output already reported. The
// replicating elastic slave runs one barrier per epoch. Safe to call
// concurrently with Emit; must not race Close.
func (s *SocketSink) FlushBarrier() {
	done := make(chan struct{})
	s.q <- sinkBatch{barrier: done}
	<-done
}

// Close drains and flushes everything pending, closes the connection, and
// reports a final flush error, or that the consumer was still gone. It must
// only be called after the engine has stopped (no concurrent Emit).
func (s *SocketSink) Close() error {
	close(s.q)
	s.wg.Wait()
	close(s.bye) // stop any in-flight redialer
	var err error
	if s.down {
		err = fmt.Errorf("engine: pair sink: closed while disconnected (%d pairs dropped)", s.dropped.Load())
	} else {
		err = s.flush()
	}
	if cerr := s.conn.Close(); err == nil {
		err = cerr
	}
	return err
}
