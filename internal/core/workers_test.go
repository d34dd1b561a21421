package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
	"streamjoin/internal/workload"
)

// wsTestConfig is a small deterministic configuration for worker-set tests:
// 12 partition-groups over the live join configuration (hash prober, block
// expiry, fine tuning on).
func wsTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Partitions = 12
	cfg.PartitionsPerGroup = 1
	cfg.WindowMs = 6_000
	cfg.Theta = 16 << 10
	cfg.Domain = 50_000
	return cfg
}

// feedWorkerSet pushes `epochs` deterministic epochs through ws with round
// timestamps pinned to epoch boundaries, and returns the total tuples fed.
func feedWorkerSet(ws *workerSet, cfg *Config, epochs int) int64 {
	const epochMs = 2_000
	s1, s2 := workload.Pair(workload.Config{Rate: 900, Skew: 0.7, Domain: cfg.Domain, Seed: 5})
	var epochNow int32
	ws.nowMs = func() int32 { return epochNow }
	var fed int64
	now := int32(0)
	for e := 0; e < epochs; e++ {
		batch := workload.Merge(s1.Batch(now, now+epochMs), s2.Batch(now, now+epochMs))
		now += epochMs
		ws.enqueue(batch)
		fed += int64(len(batch))
		epochNow = now
		ws.processUntil(time.Hour)
	}
	return fed
}

// newTestWorkerSet builds a workerSet over a live runner with W workers.
func newTestWorkerSet(t testing.TB, cfg *Config, w int) *workerSet {
	t.Helper()
	env := engine.NewLiveEnv()
	runner := engine.NewLiveRunner(env.NewProc("slave0"), w)
	ws := newWorkerSet(cfg, 0, runner)
	t.Cleanup(ws.close)
	return ws
}

// TestWorkerSetOccupancyAggregation is the multi-worker occupancy contract:
// the slave-level backlog, window, memory and tuning aggregates of a W=4 set
// equal the sums of its per-worker totals, every worker owns only groups
// that hash to it, and all aggregates match a W=1 set fed identically (the
// master cannot tell how many workers a slave hosts).
func TestWorkerSetOccupancyAggregation(t *testing.T) {
	cfg1, cfg4 := wsTestConfig(), wsTestConfig()
	ws1 := newTestWorkerSet(t, &cfg1, 1)
	ws4 := newTestWorkerSet(t, &cfg4, 4)

	const epochs = 8
	fed1 := feedWorkerSet(ws1, &cfg1, epochs)
	fed4 := feedWorkerSet(ws4, &cfg4, epochs)
	if fed1 != fed4 || fed1 == 0 {
		t.Fatalf("fed %d vs %d tuples", fed1, fed4)
	}

	// Per-worker totals sum to the slave-level aggregates.
	var win, mem, splits, merges int64
	busyWorkers := 0
	for _, w := range ws4.workers {
		wb, mb := w.mod.WindowBytes(), w.mod.MemoryBytes()
		if wb > 0 {
			busyWorkers++
		}
		if mb < wb {
			t.Fatalf("worker %d memory %d < window %d", w.id, mb, wb)
		}
		win += wb
		mem += mb
		splits += w.mod.Splits()
		merges += w.mod.Merges()
		for _, g := range w.mod.IDs() {
			if ws4.workerOf(g) != w {
				t.Fatalf("worker %d owns foreign group %d", w.id, g)
			}
		}
	}
	if busyWorkers < 2 {
		t.Fatalf("only %d of 4 workers hold state; demux is not spreading groups", busyWorkers)
	}
	if got := ws4.windowBytes(); got != win {
		t.Fatalf("windowBytes() = %d, sum of workers = %d", got, win)
	}
	if got := ws4.memoryBytes(); got != mem {
		t.Fatalf("memoryBytes() = %d, sum of workers = %d", got, mem)
	}
	if got := ws4.splitsTotal(); got != splits {
		t.Fatalf("splitsTotal() = %d, sum of workers = %d", got, splits)
	}
	if got := ws4.mergesTotal(); got != merges {
		t.Fatalf("mergesTotal() = %d, sum of workers = %d", got, merges)
	}

	// The aggregates are W-independent: the same feed through one worker
	// lands on the same totals (disjoint groups partition the state).
	if ws1.windowBytes() != ws4.windowBytes() {
		t.Fatalf("window bytes: W=1 %d, W=4 %d", ws1.windowBytes(), ws4.windowBytes())
	}
	if ws1.memoryBytes() != ws4.memoryBytes() {
		t.Fatalf("memory bytes: W=1 %d, W=4 %d", ws1.memoryBytes(), ws4.memoryBytes())
	}
	if ws1.splitsTotal() != ws4.splitsTotal() || ws1.mergesTotal() != ws4.mergesTotal() {
		t.Fatalf("tuning: W=1 %d/%d, W=4 %d/%d",
			ws1.splitsTotal(), ws1.mergesTotal(), ws4.splitsTotal(), ws4.mergesTotal())
	}
	if ws1.backlogTuples() != 0 || ws4.backlogTuples() != 0 {
		t.Fatalf("backlog not drained: %d / %d", ws1.backlogTuples(), ws4.backlogTuples())
	}
	if ws4.windowBytes() == 0 {
		t.Fatal("no window state accumulated; aggregation is vacuous")
	}
}

// TestWorkerSetBacklogDemux: queued tuples land on the owning worker and the
// slave-level backlog is their sum (the Hello occupancy numerator).
func TestWorkerSetBacklogDemux(t *testing.T) {
	cfg := wsTestConfig()
	ws := newTestWorkerSet(t, &cfg, 3)
	perWorker := make([]int64, 3)
	for key := int32(0); key < 500; key++ {
		ws.enqueue([]tuple.Tuple{{Stream: tuple.S1, Key: key, TS: 0}})
		g := cfg.GroupOfKey(key)
		perWorker[int(uint32(g))%3]++
	}
	var sum int64
	for i, w := range ws.workers {
		if w.backlog != perWorker[i] {
			t.Fatalf("worker %d backlog = %d, want %d", i, w.backlog, perWorker[i])
		}
		sum += w.backlog
	}
	if got := ws.backlogTuples(); got != sum || got != 500 {
		t.Fatalf("backlogTuples() = %d, want %d (= 500)", got, sum)
	}
}

// TestEnqueueRunwiseMatchesPerTuple: demuxing a batch run by run fills every
// group's queue and every worker's backlog exactly as one-tuple-at-a-time
// demuxing does — for the master's group-contiguous batches and for an
// arbitrary order — across epochs in which queues are partly consumed, fully
// consumed or untouched between batches. The second and third batch append to
// queues that adopted a sub-slice of the first: the runs after them in that
// batch must come through unharmed (the adoption caps the slice, so the append
// reallocates instead of writing into its neighbour).
func TestEnqueueRunwiseMatchesPerTuple(t *testing.T) {
	cfg := wsTestConfig()
	rng := rand.New(rand.NewPCG(14, 0xe11e))
	for _, contiguous := range []bool{true, false} {
		runwise := newTestWorkerSet(t, &cfg, 3)
		perTuple := newTestWorkerSet(t, &cfg, 3)
		for epoch := int32(0); epoch < 4; epoch++ {
			batch := make([]tuple.Tuple, 300+rng.IntN(300))
			for i := range batch {
				batch[i] = tuple.Tuple{Stream: tuple.StreamID(rng.IntN(2)), Key: int32(rng.IntN(5000)), TS: epoch*1000 + int32(i)}
			}
			if contiguous {
				// The master's contract: group-contiguous, timestamp-ordered
				// within each group.
				slices.SortStableFunc(batch, func(a, b tuple.Tuple) int {
					return int(cfg.GroupOfKey(a.Key) - cfg.GroupOfKey(b.Key))
				})
			}
			for _, tp := range batch {
				perTuple.enqueue([]tuple.Tuple{tp})
			}
			runwise.enqueue(batch) // the batch now belongs to the backlog

			for k, w := range runwise.workers {
				ref := perTuple.workers[k]
				if w.backlog != ref.backlog || len(w.input) != len(ref.input) {
					t.Fatalf("contiguous=%v epoch %d worker %d: backlog %d over %d groups, want %d over %d",
						contiguous, epoch, k, w.backlog, len(w.input), ref.backlog, len(ref.input))
				}
				for g, q := range ref.input {
					if !slices.Equal(w.input[g], q) {
						t.Fatalf("contiguous=%v epoch %d: group %d queue differs from per-tuple demux", contiguous, epoch, g)
					}
				}
			}
			// Consume unevenly, identically on both sides: groups 0, 3, … keep
			// a tail (the next batch appends to an adopted slice), their batch
			// neighbours 1, 4, … are left whole (so an append running into them
			// would show), and 2, 5, … empty out (the next batch is adopted
			// afresh).
			for k, w := range runwise.workers {
				for _, g := range w.groupList(false) {
					if g%3 == 1 {
						continue
					}
					w.curChunk = 1 + int(g%3)*500 + rng.IntN(5)
					perTuple.workers[k].curChunk = w.curChunk
					if got, want := w.takeChunk(g), perTuple.workers[k].takeChunk(g); !slices.Equal(got, want) {
						t.Fatalf("contiguous=%v epoch %d: group %d chunk differs", contiguous, epoch, g)
					}
				}
			}
		}
	}
}

// TestWorkerSetStateMovementRouting: extract and install route a group's
// windows and pending backlog to the owning worker, preserving totals.
func TestWorkerSetStateMovementRouting(t *testing.T) {
	cfgA, cfgB := wsTestConfig(), wsTestConfig()
	src := newTestWorkerSet(t, &cfgA, 4)
	dst := newTestWorkerSet(t, &cfgB, 2)
	feedWorkerSet(src, &cfgA, 4)

	// Leave one group's worth of backlog queued so the movement carries
	// pending tuples too.
	g := int32(7)
	pend := []tuple.Tuple{{Stream: tuple.S1, Key: 7, TS: 9_000}, {Stream: tuple.S2, Key: 19, TS: 9_001}}
	w := src.workerOf(g)
	w.input[g] = append(w.input[g], pend...)
	w.backlog += int64(len(pend))

	before := src.windowBytes()
	// Snapshot the windows first, as startOutgoing does; extractGroup then
	// detaches the group and returns only its shape and backlog.
	grp, _ := src.workerOf(g).mod.Get(g)
	snap := grp.Extract()
	st, pending := src.extractGroup(g)
	if st.WindowTuples() != 0 || st.GlobalDepth != snap.GlobalDepth || !slices.Equal(st.Buckets, snap.Buckets) {
		t.Fatalf("extracted state %+v, want the snapshot's shape without windows", st)
	}
	if len(pending) != len(pend) {
		t.Fatalf("pending = %d tuples, want %d", len(pending), len(pend))
	}
	if src.workerOf(g).backlog != 0 {
		t.Fatalf("backlog left on supplier worker: %d", src.workerOf(g).backlog)
	}
	moved := before - src.windowBytes()
	if moved <= 0 {
		t.Fatal("extract moved no window state")
	}

	// Round-trip through the wire encoding, as stepIncoming receives it.
	decoded, err := wire.Unmarshal(wire.Marshal(closeDelta(wire.Directive{MoveID: 1, Group: g}, snap, pending)))
	if err != nil {
		t.Fatal(err)
	}
	msg := decoded.(*wire.WindowDelta)
	if err := dst.installState(closedState(msg), msg.Pending); err != nil {
		t.Fatal(err)
	}
	own := dst.workerOf(g)
	if _, ok := own.mod.Get(g); !ok {
		t.Fatalf("group %d not installed on its owning worker", g)
	}
	if dst.windowBytes() != moved {
		t.Fatalf("installed window bytes = %d, want %d", dst.windowBytes(), moved)
	}
	if own.backlog != int64(len(pend)) || dst.backlogTuples() != int64(len(pend)) {
		t.Fatalf("pending backlog = %d (worker) / %d (set), want %d",
			own.backlog, dst.backlogTuples(), len(pend))
	}
	for _, other := range dst.workers {
		if other != own && other.mod.NumGroups() != 0 {
			t.Fatalf("group leaked onto worker %d", other.id)
		}
	}
}

// BenchmarkWorkerScaling measures multi-prober throughput on the scan
// prober (the CPU-heavy ablation baseline, so per-core parallelism is
// visible): one slave's epoch processing fanned across W workers over 8
// partition-groups, monolithic scans (fine tuning off). tuples/sec should
// scale with W on a multi-core runner; compare W=1 vs W=NumCPU.
func BenchmarkWorkerScaling(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			cfg := wsTestConfig()
			cfg.Partitions = 8
			cfg.LiveProber = join.ModeScan // honest nested loops: CPU-bound
			cfg.FineTune = false           // monolithic per-group scan units
			cfg.WindowMs = 20_000
			ws := newTestWorkerSet(b, &cfg, w)

			const epochMs = 2_000
			s1, s2 := workload.Pair(workload.Config{Rate: 1200, Skew: 0.7, Domain: 20_000, Seed: 3})
			var epochNow int32
			ws.nowMs = func() int32 { return epochNow }
			now := int32(0)
			nextEpoch := func() []tuple.Tuple {
				batch := workload.Merge(s1.Batch(now, now+epochMs), s2.Batch(now, now+epochMs))
				now += epochMs
				return batch
			}
			// Fill the windows to steady state before timing.
			for now < cfg.WindowMs {
				end := now + epochMs
				ws.enqueue(nextEpoch())
				epochNow = end
				ws.processUntil(time.Hour)
			}
			epochs := make([][]tuple.Tuple, b.N)
			for i := range epochs {
				epochs[i] = nextEpoch()
			}
			b.ResetTimer()
			tuples := 0
			for i, batch := range epochs {
				ws.enqueue(batch)
				epochNow = cfg.WindowMs + int32(i+1)*epochMs
				ws.processUntil(time.Hour)
				tuples += len(batch)
			}
			b.StopTimer()
			b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/sec")
			var outputs int64
			for _, w := range ws.workers {
				outputs += w.outputs
			}
			b.ReportMetric(float64(outputs)/float64(b.N), "outputs/epoch")
		})
	}
}
