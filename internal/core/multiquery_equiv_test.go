package core

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/wire"
)

// The multi-query equivalence test: the same deterministic epoch schedule as
// the multi-worker test — master-style tuple batches plus a mid-run state
// transfer, shipped over real TCP into a W=4 workerSet — is run once per
// configuration: single-query hash, single-query scan, two identical hash
// queries, and a {hash, scan} pair sharing one window set. Because every
// query probes the same ingested windows, each query's per-group round trace
// must be bit-identical to the corresponding single-query baseline, and two
// identical queries must trace identically to each other.

// mqOut is one run's per-query, per-group round traces.
type mqOut struct {
	traces map[int32]map[int32][]mwRoundSig // query id → group → rounds
	err    any
}

// mqProbeSig strips a round signature down to the fields a query owns:
// shared round work (ingest, expiry, tuning) is charged to the first
// registered query's result only, so secondary queries are compared on
// their probe output alone.
func mqProbeSig(s mwRoundSig) mwRoundSig {
	return mwRoundSig{Outputs: s.Outputs, Scanned: s.Scanned, PairsHash: s.PairsHash}
}

// runMultiQuery ships the schedule over one real TCP connection into a
// workerSet with W join workers and returns the per-query, per-group round
// traces. A legacy single-query config traces everything under query 0.
func runMultiQuery(t *testing.T, cfg Config, msgs []wire.Message, W int) mqOut {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	env := engine.NewLiveEnv()
	driverP := env.NewProc("driver")
	slaveP := env.NewProc("slave")

	queries := cfg.effectiveQueries()
	slaveCh := make(chan mqOut, 1)
	go func() {
		var out mqOut
		defer func() { out.err = recover(); slaveCh <- out }()
		c, err := ln.Accept()
		if err != nil {
			panic(err)
		}
		defer c.Close()
		conn := engine.WrapTCPBatched(slaveP, c, cfg.WireBatchBytes)

		runner := engine.NewLiveRunner(slaveP, W)
		ws := newWorkerSet(&cfg, 0, runner)
		defer ws.close()
		var epochNow atomic.Int32
		ws.nowMs = func() int32 { return epochNow.Load() }
		// Trace storage is fully populated before the workers start; each
		// (query, group) cell is only ever appended to by the one worker
		// that owns the group, so the hook needs no locking.
		out.traces = make(map[int32]map[int32][]mwRoundSig, len(queries))
		traces := make(map[int32][]*[]mwRoundSig, len(queries))
		for _, q := range queries {
			out.traces[q.ID] = make(map[int32][]mwRoundSig, cfg.NumGroups())
			cells := make([]*[]mwRoundSig, cfg.NumGroups())
			for g := range cells {
				s := []mwRoundSig{}
				cells[g] = &s
			}
			traces[q.ID] = cells
		}
		ws.onRound = func(_ int, g int32, r *join.RoundResult) {
			cells, ok := traces[r.Query]
			if !ok {
				panic("round result for unregistered query")
			}
			*cells[g] = append(*cells[g], mwRoundSig{
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
					for id, cells := range traces {
						for g := range cells {
							out.traces[id][int32(g)] = *cells[g]
						}
					}
					return
				}
				ws.enqueue(m.Tuples)
				epochNow.Store(int32(epoch+1) * mwEpochMs)
				ws.processUntil(time.Hour)
				// The per-flush contract: at most one merged result batch
				// per registered query, each stamped with its id.
				var cap captureSender
				ws.flushResults(&cap)
				if len(cap.sent) > len(queries) {
					panic("flushResults sent more batches than queries")
				}
				for _, sm := range cap.sent {
					rb := sm.(*wire.ResultBatch)
					if _, ok := traces[rb.Query]; !ok {
						panic("result batch for unregistered query")
					}
				}
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
	driver := engine.WrapTCPBatched(driverP, c, cfg.WireBatchBytes)
	for _, m := range msgs {
		if _, ok := m.(*wire.StateTransfer); ok {
			engine.SendBuffered(driver, m)
			continue
		}
		driver.Send(m)
	}

	out := <-slaveCh
	if out.err != nil {
		t.Fatalf("slave failed: %v", out.err)
	}
	return out
}

// mqCompare asserts two per-group trace sets are identical after mapping
// each signature through sig (identity for full bit-for-bit comparison).
func mqCompare(t *testing.T, label string, groups int,
	got, want map[int32][]mwRoundSig, sig func(mwRoundSig) mwRoundSig) int64 {
	t.Helper()
	var total int64
	for g := int32(0); g < int32(groups); g++ {
		a, b := got[g], want[g]
		if len(a) != len(b) {
			t.Fatalf("%s: group %d: %d rounds vs %d", label, g, len(a), len(b))
		}
		for i := range a {
			if sig(a[i]) != sig(b[i]) {
				t.Fatalf("%s: group %d round %d diverged:\ngot  %+v\nwant %+v",
					label, g, i, sig(a[i]), sig(b[i]))
			}
			total += a[i].Outputs
		}
	}
	return total
}

// TestMultiQueryEquivalence is the multi-query acceptance test: N queries
// over one shared ingested window set produce exactly the output of N
// separate single-query runs, over real TCP with W=4 workers and a mid-run
// state transfer.
func TestMultiQueryEquivalence(t *testing.T) {
	cfg := mwConfig()
	const epochs = 24
	msgs := mwSchedule(t, &cfg, epochs)

	// Single-query baselines, one per prober (legacy config shape).
	scanCfg := cfg
	scanCfg.Mode = join.ModeScan
	scanCfg.LiveProber = join.ModeScan
	baseHash := runMultiQuery(t, cfg, msgs, 4)
	baseScan := runMultiQuery(t, scanCfg, msgs, 4)

	// Two identical hash queries: identical per-group pair traces.
	twinCfg := cfg
	twinCfg.Queries = []QuerySpec{
		{ID: 0, Prober: join.ModeHash},
		{ID: 1, Prober: join.ModeHash},
	}
	twin := runMultiQuery(t, twinCfg, msgs, 4)
	total := mqCompare(t, "twin q0 vs q1", cfg.NumGroups(),
		twin.traces[0], twin.traces[1], mqProbeSig)

	// A {hash, scan} pair: each query matches its single-query baseline.
	// Query 0 carries the shared round costs (ingest, expiry, tuning) like
	// a single-query run does, so it must match bit-for-bit; the scan
	// query is compared on its probe output.
	mixCfg := cfg
	mixCfg.Queries = []QuerySpec{
		{ID: 0, Prober: join.ModeHash},
		{ID: 7, Prober: join.ModeScan},
	}
	mix := runMultiQuery(t, mixCfg, msgs, 4)
	mqCompare(t, "mixed hash vs baseline", cfg.NumGroups(),
		mix.traces[0], baseHash.traces[0], func(s mwRoundSig) mwRoundSig { return s })
	mqCompare(t, "mixed scan vs baseline", cfg.NumGroups(),
		mix.traces[7], baseScan.traces[0], mqProbeSig)

	// The twin run must also reproduce the hash baseline, so all four runs
	// agree on the join's output.
	mqCompare(t, "twin vs baseline", cfg.NumGroups(),
		twin.traces[0], baseHash.traces[0], func(s mwRoundSig) mwRoundSig { return s })

	if total == 0 {
		t.Fatal("vacuous schedule: no outputs")
	}
	// Sanity: the scan and hash baselines agree on total outputs
	// (different Scanned, same pairs).
	outs := func(tr map[int32][]mwRoundSig) (n int64) {
		for _, rounds := range tr {
			for _, r := range rounds {
				n += r.Outputs
			}
		}
		return n
	}
	if outs(baseHash.traces[0]) != outs(baseScan.traces[0]) {
		t.Fatalf("hash baseline %d outputs vs scan baseline %d",
			outs(baseHash.traces[0]), outs(baseScan.traces[0]))
	}
	t.Logf("multi-query ≡ single-query: %d outputs per query over %d groups", total, cfg.NumGroups())
}
