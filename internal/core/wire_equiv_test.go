package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"net"
	"reflect"
	"testing"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
	"streamjoin/internal/workload"
)

// The live-deploy equivalence test: an identical, fully deterministic epoch
// schedule — master-style tuple batches, a mid-run state transfer, and the
// slave's result batches flowing back — is shipped over real TCP through the
// batched transport and also processed by a join module with no transport.
// The two must produce identical round results, while the TCP run moves the
// schedule's logical bytes in fewer physical frames than messages.

// equivEpochMs is the deterministic distribution epoch of the schedule.
const equivEpochMs = 2_000

// epochSig fingerprints one epoch of slave-side join processing.
type epochSig struct {
	Outputs    int64
	Scanned    int64
	SplitMoves int64
	Ingested   int
	Expired    int
	Splits     int
	Merges     int
	PairsHash  uint64
}

// equivSchedule builds the deterministic message schedule: E epochs of
// Table-I-shaped tuple batches for group 0, with a state transfer installing
// a populated group 1 midway (so a big closing WindowDelta shares frames
// with a Batch, like a supplier's buffered exchange).
func equivSchedule(t *testing.T, epochs int) []wire.Message {
	t.Helper()
	s1, s2 := workload.Pair(workload.Config{Rate: 1500, Skew: 0.7, Domain: 100_000, Seed: 7})
	var msgs []wire.Message
	now := int32(0)
	for e := 0; e < epochs; e++ {
		if e == epochs/2 {
			msgs = append(msgs, donorTransfer(t, 1))
		}
		batch := workload.Merge(s1.Batch(now, now+equivEpochMs), s2.Batch(now, now+equivEpochMs))
		now += equivEpochMs
		msgs = append(msgs, &wire.Batch{Epoch: int64(e), Tuples: batch})
	}
	msgs = append(msgs, &wire.Batch{Shutdown: true})
	return msgs
}

// equivJoinConfig is the live engine's join configuration (hash prober,
// block expiry) at a window short enough for expiry to fire mid-schedule.
func equivJoinConfig() join.Config {
	cfg := mwConfig()
	return cfg.joinConfig()
}

func hashPairs(h hash.Hash64, pairs []join.Pair) {
	var buf [17]byte
	for _, p := range pairs {
		buf[0] = byte(p.Probe.Stream)
		binary.BigEndian.PutUint32(buf[1:5], uint32(p.Probe.Key))
		binary.BigEndian.PutUint32(buf[5:9], uint32(p.Probe.TS))
		binary.BigEndian.PutUint32(buf[9:13], uint32(p.Stored.Key))
		binary.BigEndian.PutUint32(buf[13:17], uint32(p.Stored.TS))
		h.Write(buf[:])
	}
}

// equivSlave is the slave side of the schedule: one join module fed the
// driver's messages in order.
type equivSlave struct {
	mod   *join.Module
	epoch int
}

func newEquivSlave() *equivSlave { return &equivSlave{mod: join.MustNew(equivJoinConfig())} }

// apply processes one schedule message. For an epoch's tuple batch it
// returns the epoch's signature and the result batch the slave ships for it;
// ok is false for a state transfer or the shutdown batch.
func (s *equivSlave) apply(m wire.Message) (sig epochSig, rb *wire.ResultBatch, ok bool) {
	switch m := m.(type) {
	case *wire.WindowDelta:
		if err := s.mod.Install(closedState(m)); err != nil {
			panic(err)
		}
		// Pending tuples join the next round of their group, exactly as
		// slaveNode.install queues them.
		s.mod.Process(m.Group, int32(s.epoch)*equivEpochMs, m.Pending)
		return sig, nil, false
	case *wire.Batch:
		if m.Shutdown {
			return sig, nil, false
		}
		nowMs := int32(s.epoch+1) * equivEpochMs
		h := fnv.New64a()
		s.mod.Ensure(0) // every epoch's tuples are group 0's
		for _, id := range s.mod.IDs() {
			var tuples []tuple.Tuple
			if id == 0 {
				tuples = m.Tuples
			}
			res := s.mod.Process(id, nowMs, tuples)
			sig.Outputs += res.Outputs
			sig.Scanned += res.Scanned
			sig.SplitMoves += res.SplitMoves
			sig.Ingested += res.Ingested
			sig.Expired += res.Expired
			sig.Splits += res.Splits
			sig.Merges += res.Merges
			hashPairs(h, res.Pairs)
		}
		sig.PairsHash = h.Sum64()
		s.epoch++
		return sig, &wire.ResultBatch{
			Slave:   0,
			Outputs: sig.Outputs,
			// Smuggle the fingerprint through existing fields so the wire
			// carries it without a schema change.
			DelaySumMs: int64(sig.PairsHash >> 1),
		}, true
	default:
		panic("unexpected message kind")
	}
}

// runEquivDirect processes the schedule with no transport at all: the
// reference the TCP run must reproduce.
func runEquivDirect(msgs []wire.Message) ([]epochSig, []wire.Message) {
	s := newEquivSlave()
	var sigs []epochSig
	var results []wire.Message
	for _, m := range msgs {
		if sig, rb, ok := s.apply(m); ok {
			sigs = append(sigs, sig)
			results = append(results, rb)
		}
	}
	return sigs, results
}

// runEquivTransport ships the schedule over real TCP with the given batching
// threshold and returns the slave-side epoch signatures, the result batches
// the driver read back, and the driver's stats.
func runEquivTransport(t *testing.T, msgs []wire.Message, batchBytes int) ([]epochSig, []wire.Message, engine.Stats) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	env := engine.NewLiveEnv()
	driverP := env.NewProc("driver")
	slaveP := env.NewProc("slave")

	type slaveOut struct {
		sigs []epochSig
		err  any
	}
	slaveCh := make(chan slaveOut, 1)
	go func() {
		var out slaveOut
		defer func() { out.err = recover(); slaveCh <- out }()
		// Control first, results second — the dial order below. Results
		// ride their own connection exactly as in ServeSlaveTCP, so
		// coalescing is not cut short by control-plane turnarounds.
		c, err := ln.Accept()
		if err != nil {
			panic(err)
		}
		defer c.Close()
		rc, err := ln.Accept()
		if err != nil {
			panic(err)
		}
		defer rc.Close()
		conn := engine.WrapTCPBatched(slaveP, c, batchBytes)
		res := engine.WrapTCPBatched(slaveP, rc, batchBytes)
		s := newEquivSlave()
		for {
			m := conn.Recv()
			if b, ok := m.(*wire.Batch); ok && b.Shutdown {
				engine.Flush(res)
				return
			}
			if sig, rb, ok := s.apply(m); ok {
				out.sigs = append(out.sigs, sig)
				engine.SendBuffered(res, rb)
			}
		}
	}()

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	driver := engine.WrapTCPBatched(driverP, c, batchBytes)
	resConn := engine.WrapTCPBatched(driverP, rc, batchBytes)
	epochs := 0
	for _, m := range msgs {
		if _, ok := m.(*wire.WindowDelta); ok {
			// A supplier buffers state so it can share a frame with the
			// epoch batch that follows.
			engine.SendBuffered(driver, m)
			continue
		}
		driver.Send(m)
		if b := m.(*wire.Batch); !b.Shutdown {
			epochs++
		}
	}
	var results []wire.Message
	for i := 0; i < epochs; i++ {
		results = append(results, resConn.Recv())
	}

	out := <-slaveCh
	if out.err != nil {
		t.Fatalf("slave failed: %v", out.err)
	}
	return out.sigs, results, driverP.Stats()
}

// TestWireBatchingEquivalence is the acceptance test for the batched
// transport: the join output over TCP is identical to processing the same
// schedule with no transport, in fewer physical frames than messages.
func TestWireBatchingEquivalence(t *testing.T) {
	const epochs = 24
	msgs := equivSchedule(t, epochs)

	refSigs, refResults := runEquivDirect(msgs)
	tcpSigs, tcpResults, driver := runEquivTransport(t, msgs, 8<<10)

	if len(refSigs) != epochs || len(tcpSigs) != epochs {
		t.Fatalf("epoch counts: direct=%d tcp=%d want %d", len(refSigs), len(tcpSigs), epochs)
	}
	if !reflect.DeepEqual(refSigs, tcpSigs) {
		for i := range refSigs {
			if refSigs[i] != tcpSigs[i] {
				t.Fatalf("epoch %d diverged:\ndirect %+v\ntcp    %+v", i, refSigs[i], tcpSigs[i])
			}
		}
		t.Fatal("signatures diverged")
	}
	if !reflect.DeepEqual(refResults, tcpResults) {
		t.Fatal("result batches diverged from the direct run")
	}
	var total int64
	for _, s := range refSigs {
		total += s.Outputs
	}
	if total == 0 {
		t.Fatal("schedule produced no join output; equivalence is vacuous")
	}

	// Logical accounting is framing-independent: exactly the messages'
	// WireSize in each direction...
	var sent, recv int64
	for _, m := range msgs {
		sent += m.WireSize()
	}
	for _, m := range refResults {
		recv += m.WireSize()
	}
	if driver.BytesSent != sent || driver.MsgsSent != int64(len(msgs)) ||
		driver.BytesRecv != recv || driver.MsgsRecv != int64(len(refResults)) {
		t.Fatalf("logical stats: sent %d B / %d msgs, recv %d B / %d msgs; want %d / %d, %d / %d",
			driver.BytesSent, driver.MsgsSent, driver.BytesRecv, driver.MsgsRecv,
			sent, len(msgs), recv, len(refResults))
	}
	// ...while the batched transport needs fewer physical frames than
	// messages in both directions: the result batches coalesce (the driver
	// reads them from fewer frames) and the state transfer shares a frame
	// with the following batch.
	if driver.WireFramesRecv >= driver.MsgsRecv {
		t.Fatalf("recv: %d frames for %d messages, want fewer", driver.WireFramesRecv, driver.MsgsRecv)
	}
	if driver.WireFramesSent >= driver.MsgsSent {
		t.Fatalf("sent: %d frames for %d messages, want fewer", driver.WireFramesSent, driver.MsgsSent)
	}
	t.Logf("frames sent %d for %d msgs, recv %d for %d msgs; physical recv bytes %d; logical sent bytes %d; outputs %d",
		driver.WireFramesSent, driver.MsgsSent, driver.WireFramesRecv, driver.MsgsRecv,
		driver.WireBytesRecv, driver.BytesSent, total)
}
