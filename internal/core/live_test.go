package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// liveConfig is a short wall-clock configuration for live-engine tests.
func liveConfig() Config {
	cfg := DefaultConfig()
	cfg.Slaves = 2
	cfg.Rate = 800
	cfg.WindowMs = 3_000
	cfg.DistEpochMs = 200
	cfg.ReorgEpochMs = 1_000
	cfg.DurationMs = 4_000
	cfg.WarmupMs = 1_000
	cfg.Theta = 32 * 1024
	cfg.Domain = 20_000
	return cfg
}

func TestRunLiveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	res, err := RunLive(liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs == 0 {
		t.Fatal("live cluster produced no outputs")
	}
	if res.EpochsServed < 10 {
		t.Fatalf("epochs served = %d", res.EpochsServed)
	}
	// Pre-saturation the delay tracks the distribution epoch.
	if res.MeanDelay() <= 0 || res.MeanDelay() > 2*time.Second {
		t.Fatalf("mean delay = %v", res.MeanDelay())
	}
	t.Logf("live: outputs=%d delay=%v epochs=%d", res.Outputs, res.MeanDelay(), res.EpochsServed)
}

// TestRunLiveDeliversWithinTheEpoch: over pipes, a tuple waits in the
// master's mini-buffer for its slave's next data slot, t_d/k away, not for
// the next epoch exchange. The mean production delay stays under 0.4·t_d
// (one delivery per epoch holds it near t_d/2), and the pairs are the
// oracle's — also with staggered sub-groups, where a slave's data slot can
// fall after the next epoch has begun.
func TestRunLiveDeliversWithinTheEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	for _, c := range []struct {
		name              string
		slaves, subGroups int
	}{{"one-group", 2, 1}, {"staggered-subgroups", 3, 2}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := liveConfig()
			cfg.Slaves, cfg.SubGroups, cfg.StaggerSlots = c.slaves, c.subGroups, c.subGroups > 1
			cfg.DistEpochMs = 250
			cfg.ReorgEpochMs = 2_500
			cfg.WindowMs = 600_000 // outlives the run: the oracle is S1×S2 per key
			cfg.DurationMs = 5_000
			work := elasticWorkload(400, 4_000, 10, 48)
			got := make(pairMultiset[pairFP])
			var mu sync.Mutex
			cfg.Sink = join.SinkFunc(func(_ int32, pairs []join.Pair) {
				mu.Lock()
				defer mu.Unlock()
				for _, p := range pairs {
					got[fpOf(wire.OutPair{Probe: p.Probe, Stored: p.Stored})]++
				}
			})
			res, err := runLive(cfg, &listIngestor{tuples: slices.Clone(work)})
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForcePairs(work)
			if missing, extra := got.diff(want); missing > 0 || extra > 0 || len(want) < 1_000 {
				t.Errorf("%d of %d pairs missing, %d unexpected", missing, want.total(), extra)
			}
			td := time.Duration(cfg.DistEpochMs) * time.Millisecond
			if d := res.MeanDelay(); d >= td*4/10 {
				t.Errorf("mean delay %v, want under 0.4·t_d = %v", d, td*4/10)
			}
			t.Logf("mean delay %v at t_d %v, %d pairs", res.MeanDelay(), td, got.total())
		})
	}
}

// TestRunLiveScanAblation runs the live engine with the ModeScan ablation
// prober (the paper's nested-loop algorithm) and checks it still produces
// outputs, keeping the ModeHash-vs-ModeScan benchmark comparison honest.
func TestRunLiveScanAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	cfg := liveConfig()
	cfg.LiveProber = join.ModeScan
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs == 0 {
		t.Fatal("scan-ablation live cluster produced no outputs")
	}
}

func TestRunLiveWithMovements(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	cfg := liveConfig()
	cfg.Slaves = 2
	cfg.Rate = 2_000
	cfg.DurationMs = 6_000
	cfg.WarmupMs = 1_000
	// Make slave 0 slow for real: live mode has no simulated background
	// load, so instead provoke movements with a tiny supplier threshold.
	cfg.ThSup = 0.02
	cfg.ThCon = 0.0001
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs == 0 {
		t.Fatal("no outputs")
	}
	t.Logf("live movements: issued=%d done=%d", res.MovesIssued, res.MovesCompleted)
}

// TestRunLiveSourceDropsAccounted starves the ingest edge on purpose — a
// run-ahead bound of 1 ms where the master pulls every ~100 ms — and checks
// that no tuple vanishes unaccounted: everything the sources offered was
// either handed to the master, counted as dropped, or is still queued, and
// the drop count reaches the Result.
func TestRunLiveSourceDropsAccounted(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	cfg := liveConfig()
	cfg.Rate = 5_000
	cfg.DurationMs = 2_000
	cfg.WarmupMs = 500
	in := &liveIngestor{maxLagMs: 1}
	res, err := runLive(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	offered, pulled, dropped, queued := in.counts()
	if dropped == 0 {
		t.Fatalf("no drops with a 1 ms run-ahead bound under %d offered tuples — the test is vacuous", offered)
	}
	if got := pulled + dropped + queued; got != offered {
		t.Errorf("offered %d != ingested %d + dropped %d + queued %d", offered, pulled, dropped, queued)
	}
	if res.SourceDropped != dropped {
		t.Errorf("Result.SourceDropped = %d, want %d", res.SourceDropped, dropped)
	}
	t.Logf("offered %d, ingested %d, dropped %d", offered, pulled, dropped)
}

// TestRunLiveOnScheduleDropsNothing is the opposite arm: a master pulling on
// its fixed schedule loses nothing at a rate (200 000 tuples/s) where one
// epoch's arrivals alone exceed any small fixed queue, so a capacity-shaped
// ingest ceiling cannot quietly return. In-order synthetic sources also leave
// the timestamp clamp idle.
func TestRunLiveOnScheduleDropsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	cfg := liveConfig()
	cfg.Rate = 100_000 // per stream
	cfg.Domain = 1 << 23
	cfg.WindowMs = 1_000
	cfg.DurationMs = 1_500
	cfg.WarmupMs = 500
	in := newLiveIngestor(&cfg)
	res, err := runLive(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	offered, pulled, dropped, queued := in.counts()
	if res.SourceDropped != 0 || dropped != 0 {
		t.Errorf("dropped %d of %d offered tuples (Result.SourceDropped %d) with the master on schedule",
			dropped, offered, res.SourceDropped)
	}
	if offered < 200_000 || pulled+queued != offered {
		t.Errorf("offered %d, pulled %d, queued %d", offered, pulled, queued)
	}
	if res.TSClamped != 0 {
		t.Errorf("TSClamped = %d on in-order sources", res.TSClamped)
	}
}

// TestLiveIngestorConservesUnderConcurrency drives the run queue the way the
// live master does — a feeder pushing runs while another goroutine pulls —
// with no wall clock: offered = pulled + dropped + queued must hold at the
// end, every pulled tuple arrives once and in order, and a stalled puller
// makes the feeder drop rather than queue without bound.
func TestLiveIngestorConservesUnderConcurrency(t *testing.T) {
	const (
		ticks   = 4000
		perTick = 7
		tickMs  = 5
	)
	in := &liveIngestor{maxLagMs: 100}
	feedDone := make(chan struct{})
	go func() {
		defer close(feedDone)
		next := int32(0) // Key numbers the offered tuples
		for k := int32(0); k < ticks; k++ {
			run := make([]tuple.Tuple, perTick)
			for j := range run {
				run[j] = tuple.Tuple{Key: next, TS: (k + 1) * tickMs}
				next++
			}
			in.push(run, k*tickMs, (k+1)*tickMs)
		}
	}()
	var got int64
	last := int32(-1)
	pull := func() {
		for _, tp := range in.Pull(0) {
			if tp.Key <= last {
				t.Errorf("pulled tuple %d after %d: duplicated or out of order", tp.Key, last)
			}
			last = tp.Key
			got++
		}
	}
	for fed := false; !fed; {
		select {
		case <-feedDone:
			fed = true
		default:
			pull()
			runtime.Gosched()
		}
	}
	offered, pulled, dropped, queued := in.counts()
	if offered != ticks*perTick || pulled != got || pulled+dropped+queued != offered {
		t.Fatalf("offered %d (want %d), pulled %d (saw %d), dropped %d, queued %d",
			offered, ticks*perTick, pulled, got, dropped, queued)
	}
	if queued > int64(in.maxLagMs/tickMs+1)*perTick {
		t.Fatalf("%d tuples queued: more than the run-ahead bound admits", queued)
	}
	pull()
	if _, pulled, _, queued = in.counts(); queued != 0 || pulled != got || pulled+dropped != offered {
		t.Fatalf("after the final pull: pulled %d (saw %d), dropped %d, queued %d of %d",
			pulled, got, dropped, queued, offered)
	}

	// A puller that never comes: the queue stops growing at the bound.
	stalled := &liveIngestor{maxLagMs: 100}
	for k := int32(0); k < 100; k++ {
		stalled.push(make([]tuple.Tuple, perTick), k*tickMs, (k+1)*tickMs)
	}
	offered, _, dropped, queued = stalled.counts()
	if want := int64(100 / tickMs * perTick); queued != want || dropped != offered-want {
		t.Fatalf("stalled puller: queued %d (want %d), dropped %d of %d", queued, want, dropped, offered)
	}
}

// countingColl is a collector sender that counts result batches and flushes.
type countingColl struct {
	sends, flushes int
	unflushed      int // batches sent since the last flush
}

func (c *countingColl) SendAsync(wire.Message) { c.sends++; c.unflushed++ }
func (c *countingColl) Flush()                 { c.flushes++; c.unflushed = 0 }

// TestSlaveFlushesResultsEveryEpoch: results reach the collector once per
// distribution epoch (§IV-B) — the slave loop flushes its collector sender
// after every epoch's result flush, not only at reorganization boundaries.
func TestSlaveFlushesResultsEveryEpoch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Slaves = 1
	cfg.DistEpochMs = 250
	cfg.ReorgEpochMs = 750 // K = 3: a boundary every third epoch
	cfg.WindowMs = 3_000
	env := engine.NewLiveEnv()
	mp, sp := env.NewProc("master"), env.NewProc("slave")
	mc, sc := engine.Pipe(mp, sp)
	coll := &countingColl{}
	s := newSlave(&cfg, 0, sp, sc, staticPeers([]engine.Conn{nil}), coll, nil)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		s.run()
	}()

	// Every epoch carries a matching S1/S2 pair, so every epoch has results.
	const epochs = 8
	for e := int64(0); e <= epochs; e++ {
		if h, ok := mc.Recv().(*wire.Hello); !ok || h.Epoch != e {
			t.Fatalf("epoch %d: slave sent %+v, want its Hello", e, h)
		}
		ts := int32(e) * cfg.DistEpochMs
		mc.Send(&wire.Batch{Epoch: e, Shutdown: e == epochs, Tuples: []tuple.Tuple{
			{Stream: tuple.S1, Key: int32(e), TS: ts},
			{Stream: tuple.S2, Key: int32(e), TS: ts},
		}})
		// The active slave then waits for the epoch's data slots.
		for j := 1; j < cfg.dataSlots() && e < epochs; j++ {
			mc.Send(&wire.Batch{Epoch: e})
		}
	}
	if r := <-done; r != nil {
		t.Fatalf("slave failed: %v", r)
	}
	// epochs+1 exchanges (the last one shuts down) plus the shutdown flush.
	if want := epochs + 2; coll.flushes != want {
		t.Fatalf("%d collector flushes over %d epochs served, want %d (one per epoch plus shutdown)",
			coll.flushes, epochs, want)
	}
	if coll.sends != epochs || coll.unflushed != 0 {
		t.Fatalf("%d result batches for %d epochs, %d left unflushed", coll.sends, epochs, coll.unflushed)
	}
}

// feederTick returns one step of the live source edge at the shape of the
// benchmark's ingest-overload workload (2 × 300 000 tuples/s over a 2^23
// domain): a 5 ms tick of both streams pushed into the ingestor and pulled
// by the master. The step reports how many tuples it moved.
func feederTick() func() int {
	cfg := DefaultConfig()
	cfg.Rate = 300_000
	cfg.Domain = 1 << 23
	src := newSourceIngestor(&cfg)
	in := newLiveIngestor(&cfg)
	nowMs := int32(0)
	return func() int {
		nowMs += 5
		in.tick(src, nowMs)
		return len(in.Pull(nowMs))
	}
}

// TestFeederTickAllocatesNothing: once the feeder's buffers and the
// ingestor's two queues have grown to a tick's size, generating, merging,
// queueing and pulling a tick allocates nothing.
func TestFeederTickAllocatesNothing(t *testing.T) {
	tick := feederTick()
	for range 100 {
		if tick() == 0 {
			t.Fatal("empty tick at 600 000 tuples/s")
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { tick() }); allocs != 0 {
		t.Fatalf("a steady-state feeder tick allocates %v times", allocs)
	}
}

// BenchmarkFeederTick prices the live source edge per tuple: the b-model
// draws, the Poisson gaps, the two-stream merge and the hand-off to the
// master. One op is one 5 ms tick; ci/alloc-baseline.json gates it at zero
// allocations.
func BenchmarkFeederTick(b *testing.B) {
	tick := feederTick()
	for range 100 {
		tick() // grow the buffers to their steady-state capacity
	}
	b.ReportAllocs()
	b.ResetTimer()
	tuples := 0
	for i := 0; i < b.N; i++ {
		tuples += tick()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
}
