package core

import (
	"encoding/binary"
	"hash/fnv"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
	"streamjoin/internal/workload"
)

// The multi-prober equivalence test: the same deterministic epoch schedule —
// master-style tuple batches plus a mid-run state transfer — is shipped over
// real TCP to a slave-side workerSet once with W=1 and once with W=4
// parallel join workers. Round timestamps are pinned to epoch boundaries, so
// the join is fully deterministic, and because each partition-group lives on
// exactly one worker the per-group round traces (counts and a chained
// fingerprint of every materialized output pair) must be bit-identical
// across W. The per-epoch result summaries flowing back on the result
// connection must match too.

const mwEpochMs = 2_000

// mwConfig is the deterministic multi-worker cluster shape: 8 one-partition
// groups (so W=4 owns two groups per worker), live join configuration.
func mwConfig() Config {
	cfg := DefaultConfig()
	cfg.Partitions = 8
	cfg.PartitionsPerGroup = 1
	cfg.WindowMs = 8_000
	cfg.Theta = 16 << 10
	cfg.Domain = 100_000
	cfg.Mode = join.ModeHash
	cfg.Expiry = join.ExpiryBlocks
	return cfg
}

// mwRoundSig fingerprints one processing round of one group.
type mwRoundSig struct {
	Outputs    int64
	Scanned    int64
	SplitMoves int64
	Ingested   int
	Expired    int
	Splits     int
	Merges     int
	PairsHash  uint64
}

func mwHashPairs(pairs []join.Pair) uint64 {
	h := fnv.New64a()
	var buf [17]byte
	for _, p := range pairs {
		buf[0] = byte(p.Probe.Stream)
		binary.BigEndian.PutUint32(buf[1:5], uint32(p.Probe.Key))
		binary.BigEndian.PutUint32(buf[5:9], uint32(p.Probe.TS))
		binary.BigEndian.PutUint32(buf[9:13], uint32(p.Stored.Key))
		binary.BigEndian.PutUint32(buf[13:17], uint32(p.Stored.TS))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// mwSchedule builds the deterministic message schedule: E epochs of tuple
// batches demuxed over all 8 groups, with a state transfer installing a
// populated group 5 midway (W=4 routes it to worker 1, W=1 to worker 0).
func mwSchedule(t *testing.T, cfg *Config, epochs int) []wire.Message {
	t.Helper()
	s1, s2 := workload.Pair(workload.Config{Rate: 1500, Skew: 0.7, Domain: cfg.Domain, Seed: 7})
	var msgs []wire.Message
	now := int32(0)
	for e := 0; e < epochs; e++ {
		if e == epochs/2 {
			msgs = append(msgs, mwTransfer(t, cfg))
		}
		batch := workload.Merge(s1.Batch(now, now+mwEpochMs), s2.Batch(now, now+mwEpochMs))
		now += mwEpochMs
		if e < epochs/2 {
			// Group 5 is owned elsewhere until the state transfer moves it
			// here; the master withholds a moving group's tuples exactly
			// like this (drainFor skips held groups).
			kept := batch[:0]
			for _, tp := range batch {
				if cfg.GroupOfKey(tp.Key) != 5 {
					kept = append(kept, tp)
				}
			}
			batch = kept
		}
		msgs = append(msgs, &wire.Batch{Epoch: int64(e), Tuples: batch})
	}
	return append(msgs, &wire.Batch{Shutdown: true})
}

// mwTransfer extracts a deterministic populated group 5 from a donor module,
// exactly as a supplying slave would.
func mwTransfer(t *testing.T, cfg *Config) *wire.StateTransfer {
	t.Helper()
	donor := join.MustNew(cfg.joinConfig())
	s1, s2 := workload.Pair(workload.Config{Rate: 60, Skew: 0.7, Domain: 50_000, Seed: 11})
	now := int32(0)
	for e := 0; e < 2; e++ {
		donor.Process(5, now+mwEpochMs, workload.Merge(s1.Batch(now, now+mwEpochMs), s2.Batch(now, now+mwEpochMs)))
		now += mwEpochMs
	}
	g, ok := donor.Remove(5)
	if !ok {
		t.Fatal("donor group missing")
	}
	st := g.Extract()
	pending := []tuple.Tuple{{Stream: tuple.S1, Key: 42, TS: now}}
	return st.ToWire(1, pending)
}

// captureSender records what a workerSet flush would send to the collector.
type captureSender struct {
	sent []wire.Message
}

func (c *captureSender) SendAsync(m wire.Message) { c.sent = append(c.sent, m) }

type mwOut struct {
	traces        map[int32][]mwRoundSig
	workerOutputs []int64
	err           any
}

// runMultiWorker ships the schedule over one real TCP connection into a
// workerSet with W join workers and returns the per-group round traces, the
// per-epoch result summaries the driver read back, and per-worker outputs.
func runMultiWorker(t *testing.T, cfg Config, msgs []wire.Message, W int) (mwOut, []wire.Message) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	env := engine.NewLiveEnv()
	driverP := env.NewProc("driver")
	slaveP := env.NewProc("slave")

	slaveCh := make(chan mwOut, 1)
	go func() {
		var out mwOut
		defer func() { out.err = recover(); slaveCh <- out }()
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
		conn := engine.WrapTCPBatched(slaveP, c, cfg.WireBatchBytes)
		res := engine.WrapTCPBatched(slaveP, rc, cfg.WireBatchBytes)

		runner := engine.NewLiveRunner(slaveP, W)
		ws := newWorkerSet(&cfg, 0, runner)
		defer ws.close()
		// Deterministic round clock: pinned to the epoch boundary.
		var epochNow atomic.Int32
		ws.nowMs = func() int32 { return epochNow.Load() }
		// Per-group traces: the map is fully populated before the workers
		// start, and each group is observed by exactly one worker, so the
		// hook needs no locking.
		out.traces = make(map[int32][]mwRoundSig, cfg.NumGroups())
		traces := make([]*[]mwRoundSig, cfg.NumGroups())
		for g := 0; g < cfg.NumGroups(); g++ {
			s := []mwRoundSig{}
			traces[g] = &s
		}
		ws.onRound = func(_ int, g int32, r *join.RoundResult) {
			*traces[g] = append(*traces[g], mwRoundSig{
				Outputs:    r.Outputs,
				Scanned:    r.Scanned,
				SplitMoves: r.SplitMoves,
				Ingested:   r.Ingested,
				Expired:    r.Expired,
				Splits:     r.Splits,
				Merges:     r.Merges,
				PairsHash:  mwHashPairs(r.Pairs),
			})
		}

		epoch := 0
		for {
			switch m := conn.Recv().(type) {
			case *wire.StateTransfer:
				if err := ws.installState(join.StateFromWire(m), m.Pending); err != nil {
					panic(err)
				}
			case *wire.Batch:
				if m.Shutdown {
					engine.Flush(res)
					for g := range traces {
						out.traces[int32(g)] = *traces[g]
					}
					for _, w := range ws.workers {
						out.workerOutputs = append(out.workerOutputs, w.outputs)
					}
					return
				}
				ws.enqueue(m.Tuples)
				epochNow.Store(int32(epoch+1) * mwEpochMs)
				ws.processUntil(time.Hour)
				// The production flush merges the workers' result batches
				// into one per-epoch summary; ship it on the result
				// connection (or an empty batch, so the driver reads
				// exactly one message per epoch).
				var cap captureSender
				ws.flushResults(&cap)
				sum := &wire.ResultBatch{Slave: 0}
				if len(cap.sent) == 1 {
					sum = cap.sent[0].(*wire.ResultBatch)
				} else if len(cap.sent) > 1 {
					panic("flushResults sent more than one batch")
				}
				engine.SendBuffered(res, sum)
				epoch++
			default:
				panic("unexpected message kind")
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
	driver := engine.WrapTCPBatched(driverP, c, cfg.WireBatchBytes)
	resConn := engine.WrapTCPBatched(driverP, rc, cfg.WireBatchBytes)
	epochs := 0
	for _, m := range msgs {
		if _, ok := m.(*wire.StateTransfer); ok {
			engine.SendBuffered(driver, m)
			continue
		}
		driver.Send(m)
		if b := m.(*wire.Batch); !b.Shutdown {
			epochs++
		}
	}
	var results []wire.Message
	var recvErr any
	func() {
		defer func() { recvErr = recover() }()
		for i := 0; i < epochs; i++ {
			results = append(results, resConn.Recv())
		}
	}()

	out := <-slaveCh
	if out.err != nil {
		t.Fatalf("W=%d slave failed: %v", W, out.err)
	}
	if recvErr != nil {
		t.Fatalf("W=%d driver recv failed: %v", W, recvErr)
	}
	return out, results
}

// TestMultiWorkerEquivalence is the tentpole acceptance test: a W=4 slave
// produces bit-identical join output to a W=1 slave over real TCP, while
// actually spreading the work across its workers.
func TestMultiWorkerEquivalence(t *testing.T) {
	cfg := mwConfig()
	const epochs = 24
	msgs := mwSchedule(t, &cfg, epochs)

	out1, res1 := runMultiWorker(t, cfg, msgs, 1)
	out4, res4 := runMultiWorker(t, cfg, msgs, 4)

	var total, expired int64
	rounds := 0
	for g := int32(0); g < int32(cfg.NumGroups()); g++ {
		t1, t4 := out1.traces[g], out4.traces[g]
		if !reflect.DeepEqual(t1, t4) {
			n := len(t1)
			if len(t4) < n {
				n = len(t4)
			}
			for i := 0; i < n; i++ {
				if t1[i] != t4[i] {
					t.Fatalf("group %d round %d diverged:\nW=1 %+v\nW=4 %+v", g, i, t1[i], t4[i])
				}
			}
			t.Fatalf("group %d: %d rounds at W=1 vs %d at W=4", g, len(t1), len(t4))
		}
		for _, r := range t1 {
			total += r.Outputs
			expired += int64(r.Expired)
		}
		rounds += len(t1)
	}
	if total == 0 || expired == 0 || rounds < epochs {
		t.Fatalf("vacuous schedule: outputs=%d expired=%d rounds=%d", total, expired, rounds)
	}
	if !reflect.DeepEqual(res1, res4) {
		t.Fatal("per-epoch result summaries diverged between W=1 and W=4")
	}

	// The W=4 run must have genuinely parallelized: more than one worker
	// produced output.
	if len(out4.workerOutputs) != 4 {
		t.Fatalf("W=4 ran %d workers", len(out4.workerOutputs))
	}
	busy := 0
	for _, n := range out4.workerOutputs {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 workers produced output: %v", busy, out4.workerOutputs)
	}
	t.Logf("W=1 ≡ W=4: %d outputs over %d rounds, %d expired; W=4 worker outputs %v",
		total, rounds, expired, out4.workerOutputs)
}
