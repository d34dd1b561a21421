// Benchmarks timing the system's building blocks.
//
// BenchmarkTableI runs one Table-I default configuration point; the paper's
// figures are a golden file instead (`go run ./cmd/sjoin-figures -quick
// -seed 1` reproduces it byte for byte). The remaining benchmarks cover the
// substrates (extendible hashing, windowed stores, join probers, wire codec,
// workload generators, DES kernel) and the ablations behind
// ARCHITECTURE.md's layer map (sub-group communication, θ sensitivity,
// staggered slots).
package streamjoin_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"streamjoin"
	"streamjoin/internal/bmodel"
	"streamjoin/internal/des"
	"streamjoin/internal/exthash"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/window"
	"streamjoin/internal/wire"
	"streamjoin/internal/workload"
)

// BenchmarkTableI runs one simulation at the paper's Table I defaults
// (shrunk to the Tiny run length) and reports throughput metrics.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := streamjoin.DefaultConfig()
		cfg.WindowMs = 30_000
		cfg.DurationMs = 90_000
		cfg.WarmupMs = 45_000
		res, err := streamjoin.RunSimulation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Outputs), "outputs")
		b.ReportMetric(res.MeanDelay().Seconds(), "delay-sec")
	}
}

// --- ablation benchmarks ---

// BenchmarkSubgroupBuffer sweeps the sub-group count ng and reports the
// master's peak buffer against the §V-B closed form Mbuf = (r·td/2)(1+1/ng).
func BenchmarkSubgroupBuffer(b *testing.B) {
	for _, ng := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ng=%d", ng), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := streamjoin.DefaultConfig()
				cfg.Slaves = 4
				cfg.SubGroups = ng
				cfg.Rate = 2000
				cfg.WindowMs = 30_000
				cfg.DurationMs = 60_000
				cfg.WarmupMs = 30_000
				res, err := streamjoin.RunSimulation(cfg)
				if err != nil {
					b.Fatal(err)
				}
				closed := cfg.Rate * float64(cfg.DistEpochMs) / 1000 / 2 *
					(1 + 1/float64(ng)) * 2 * 64 // both streams, bytes
				b.ReportMetric(float64(res.MasterPeakBufBytes), "peak-bytes")
				b.ReportMetric(closed, "closed-form-bytes")
			}
		})
	}
}

// BenchmarkThetaSensitivity sweeps the fine-tuning threshold θ and reports
// per-slave CPU: too small a θ wastes time splitting, too large loses the
// scan bound.
func BenchmarkThetaSensitivity(b *testing.B) {
	for _, theta := range []int64{64 << 10, 512 << 10, 1500 << 10, 6 << 20} {
		b.Run(fmt.Sprintf("theta=%dKB", theta>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := streamjoin.DefaultConfig()
				cfg.Slaves = 2
				cfg.Rate = 3000
				cfg.Theta = theta
				cfg.WindowMs = 60_000
				cfg.DurationMs = 120_000
				cfg.WarmupMs = 60_000
				res, err := streamjoin.RunSimulation(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgSlaveCPU().Seconds(), "cpu-sec")
				b.ReportMetric(float64(res.Splits+res.Merges), "tuning-ops")
			}
		})
	}
}

// BenchmarkStaggeredSlots compares per-slave communication-time divergence
// with and without the §VI-suggested staggered slot initiation.
func BenchmarkStaggeredSlots(b *testing.B) {
	for _, stagger := range []bool{false, true} {
		name := "stampede"
		if stagger {
			name = "staggered"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := streamjoin.DefaultConfig()
				cfg.Slaves = 4
				cfg.Rate = 2500
				cfg.StaggerSlots = stagger
				cfg.WindowMs = 30_000
				cfg.DurationMs = 90_000
				cfg.WarmupMs = 45_000
				res, err := streamjoin.RunSimulation(cfg)
				if err != nil {
					b.Fatal(err)
				}
				s := res.CommSummary()
				b.ReportMetric(s.Max-s.Min, "comm-spread-sec")
				b.ReportMetric(s.Mean(), "comm-avg-sec")
			}
		})
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkJoinRoundIndexed(b *testing.B) { benchJoinRound(b, join.ModeIndexed) }
func BenchmarkJoinRoundScan(b *testing.B)    { benchJoinRound(b, join.ModeScan) }
func BenchmarkJoinRoundHash(b *testing.B)    { benchJoinRound(b, join.ModeHash) }

// BenchmarkLiveProberScan/Hash compare end-to-end live-engine throughput of
// the two live probers on the equi-join workload at Table I parameters
// (rate 1500 t/s per stream, skew 0.7, domain 10M, θ = 1.5 MB, t_d = 2 s;
// the 10-minute window is shrunk to the Tiny smoke scale's 30 s, which keeps
// the scan baseline's nested loops finishing within benchtime). Each
// iteration is one full distribution epoch through the join module —
// ingestion, probing, block expiry, and fine tuning — exactly what a live
// slave executes per round. The "tuples/sec" metric is the sustained
// processing rate; ModeHash must beat ModeScan by well over 5×. Allocations
// are reported because they are the perf story of the arena index + round
// scratch work: the steady state should allocate close to nothing.
func BenchmarkLiveProberScan(b *testing.B) { benchLiveProber(b, join.ModeScan) }
func BenchmarkLiveProberHash(b *testing.B) { benchLiveProber(b, join.ModeHash) }

func benchLiveProber(b *testing.B, mode join.Mode) {
	cfg := join.Config{
		WindowMs: 30_000,
		Theta:    1_500_000,
		FineTune: true,
		Mode:     mode,
		Expiry:   join.ExpiryBlocks, // the live engine's policy
	}
	b.ReportAllocs()
	m := join.MustNew(cfg)
	s1, s2 := workload.Pair(workload.Config{
		Rate: 1500, Skew: 0.7, Domain: 10_000_000, Seed: 1,
	})
	const epochMs = 2_000 // t_d
	now := int32(0)
	nextEpoch := func() []tuple.Tuple {
		batch := workload.Merge(s1.Batch(now, now+epochMs), s2.Batch(now, now+epochMs))
		now += epochMs
		return batch
	}
	// Fill the window to steady state (generation excluded from the timer).
	for now < cfg.WindowMs {
		end := now + epochMs // hoisted: nextEpoch mutates now
		m.Process(0, end, nextEpoch())
	}
	epochs := make([][]tuple.Tuple, b.N)
	for i := range epochs {
		epochs[i] = nextEpoch()
	}
	b.ResetTimer()
	tuples, outputs := 0, int64(0)
	t0 := now - int32(b.N)*epochMs
	for i, batch := range epochs {
		res := m.Process(0, t0+int32(i+1)*epochMs, batch)
		tuples += len(batch)
		outputs += res.Outputs
	}
	b.StopTimer()
	b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/sec")
	b.ReportMetric(float64(outputs)/float64(b.N), "outputs/epoch")
}

// BenchmarkProbeHeavyRound times one steady-state round at the probe-heavy
// benchmark workload's shape through one hash module: a 2^11 key domain at
// skew 0.7, one slave's share of the rate (10k tuples/s per stream) and of
// the default 60 partition-groups, a 5 s window and 250 ms epochs. Tens of
// pairs per tuple make pair emission the round's cost — the path
// BenchmarkLiveProberHash (Table-I shape, few matches) never exercises.
// Pairs are materialized into a DiscardSink. It reports ns/pair and
// pairs/op; allocs/op must stay 0. The warm-up is eight windows, not two:
// after two, the block free lists and the pair buffer are still reaching
// new high-water marks (about 40 allocations in the next 20 rounds); after
// eight, a handful.
func BenchmarkProbeHeavyRound(b *testing.B) {
	_, pairs := benchSlaveRounds(b, 10_000, 1<<11, 250)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}

// BenchmarkIngestOverloadRound times one round at the ingest-overload
// benchmark workload's shape through one hash module: one slave's share of
// the rate (150k tuples/s per stream) and of the default 60
// partition-groups, a 2^23 key domain at skew 0.7, a 5 s window, and a
// round every 50 ms — t_d/k with k = 5, the cadence at which a live slave
// receives its data slots. Almost every tuple finds no partner, so the
// round's cost is the hash index's: a probe, an append and, a window
// later, an expiry per tuple. It reports ns/tuple.
func BenchmarkIngestOverloadRound(b *testing.B) {
	tuples, _ := benchSlaveRounds(b, 150_000, 1<<23, 50)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
}

// benchSlaveRounds runs b.N steady-state rounds of one slave's share of a
// live workload (rate tuples/s per stream over a domain of keys at skew
// 0.7, routed to 30 of 60 partition-groups, a 5 s window with block expiry,
// one round every roundMs) through one fine-tuned hash module whose pairs go
// to a DiscardSink, after eight windows of warm-up. Each round's tuples are
// generated with the timer stopped rather than all up front: at these
// rates b.N rounds would hold a hundred megabytes. It returns the tuples
// processed and the pairs emitted inside the timer.
func benchSlaveRounds(b *testing.B, rate float64, domain, roundMs int32) (tuples, pairs int64) {
	cfg := join.Config{
		WindowMs: 5_000,
		Theta:    1_500_000,
		FineTune: true,
		Mode:     join.ModeHash,
		Expiry:   join.ExpiryBlocks,
		Sink:     join.DiscardSink{},
	}
	m := join.MustNew(cfg)
	s1, s2 := workload.Pair(workload.Config{
		Rate: rate, Skew: 0.7, Domain: domain, Seed: 1,
	})
	const groups = 30
	now := int32(0)
	// nextRound routes one round's tuples to their partition-groups, as the
	// master does before distribution.
	var byGroup [groups][]tuple.Tuple
	nextRound := func() (n int64) {
		for g := range byGroup {
			byGroup[g] = byGroup[g][:0]
		}
		for _, t := range workload.Merge(s1.Batch(now, now+roundMs), s2.Batch(now, now+roundMs)) {
			g := tuple.PartitionOf(t.Key, groups)
			byGroup[g] = append(byGroup[g], t)
			n++
		}
		now += roundMs
		return n
	}
	round := func() (pairs int64) {
		for g := range byGroup {
			pairs += m.Process(int32(g), now, byGroup[g]).Outputs
		}
		return pairs
	}
	for now < 8*cfg.WindowMs {
		nextRound()
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		tuples += nextRound()
		b.StartTimer()
		pairs += round()
	}
	b.StopTimer()
	return tuples, pairs
}

// BenchmarkRoundAllocs pins the zero-allocation hot path: a steady-state
// count-only round (the live slave's inner loop with "-query 0:PROBER:count")
// at the Table-I workload shape, for both live probers. allocs/op should be 0 for
// hash and scan once the window is warm; the companion AllocsPerRun tests
// in internal/join assert exactly that, this benchmark keeps the number in
// the machine-readable perf record (BENCH_PR4.json).
func BenchmarkRoundAllocs(b *testing.B) {
	for _, mode := range []join.Mode{join.ModeHash, join.ModeScan} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := join.Config{
				WindowMs: 30_000,
				Theta:    1_500_000,
				FineTune: true,
				Expiry:   join.ExpiryBlocks,
				Queries:  []join.QueryConfig{{Mode: mode, CountOnly: true}},
			}
			m := join.MustNew(cfg)
			s1, s2 := workload.Pair(workload.Config{
				Rate: 1500, Skew: 0.7, Domain: 10_000_000, Seed: 1,
			})
			const epochMs = 2_000
			now := int32(0)
			nextEpoch := func() []tuple.Tuple {
				batch := workload.Merge(s1.Batch(now, now+epochMs), s2.Batch(now, now+epochMs))
				now += epochMs
				return batch
			}
			// Warm to steady state: a full window plus slack for the pooled
			// structures to reach their high-water marks.
			for now < 2*cfg.WindowMs {
				end := now + epochMs
				m.Process(0, end, nextEpoch())
			}
			epochs := make([][]tuple.Tuple, b.N)
			for i := range epochs {
				epochs[i] = nextEpoch()
			}
			t0 := now - int32(b.N)*epochMs
			b.ReportAllocs()
			b.ResetTimer()
			for i, batch := range epochs {
				m.Process(0, t0+int32(i+1)*epochMs, batch)
			}
		})
	}
}

// BenchmarkMultiQuery measures the marginal cost of additional join queries
// over one shared ingested window set: a steady-state count-only epoch at
// the Table-I workload shape with 1, 2, and 4 identical hash queries
// registered. Ingestion and expiry run once per round regardless of the
// query count, so ns/op should grow sublinearly in queries (the probe work
// is the only per-query term) and allocs/op must stay 0 — the multi-query
// round path preserves the zero-allocation steady state.
func BenchmarkMultiQuery(b *testing.B) {
	for _, queries := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("queries=%d", queries), func(b *testing.B) {
			cfg := join.Config{
				WindowMs: 30_000,
				Theta:    1_500_000,
				FineTune: true,
				Mode:     join.ModeHash,
				Expiry:   join.ExpiryBlocks,
			}
			cfg.Queries = make([]join.QueryConfig, queries)
			for i := range cfg.Queries {
				cfg.Queries[i] = join.QueryConfig{ID: int32(i), Mode: join.ModeHash, CountOnly: true}
			}
			m := join.MustNew(cfg)
			s1, s2 := workload.Pair(workload.Config{
				Rate: 1500, Skew: 0.7, Domain: 10_000_000, Seed: 1,
			})
			const epochMs = 2_000
			now := int32(0)
			nextEpoch := func() []tuple.Tuple {
				batch := workload.Merge(s1.Batch(now, now+epochMs), s2.Batch(now, now+epochMs))
				now += epochMs
				return batch
			}
			for now < 2*cfg.WindowMs {
				end := now + epochMs
				m.ProcessAll(0, end, nextEpoch())
			}
			epochs := make([][]tuple.Tuple, b.N)
			for i := range epochs {
				epochs[i] = nextEpoch()
			}
			t0 := now - int32(b.N)*epochMs
			b.ReportAllocs()
			b.ResetTimer()
			var outputs int64
			for i, batch := range epochs {
				for _, res := range m.ProcessAll(0, t0+int32(i+1)*epochMs, batch) {
					outputs += res.Outputs
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(outputs)/float64(b.N)/float64(queries), "outputs/epoch/query")
		})
	}
}

func benchJoinRound(b *testing.B, mode join.Mode) {
	cfg := join.Config{WindowMs: 60_000, Theta: 96 << 10, FineTune: true, Mode: mode}
	m := join.MustNew(cfg)
	r := rand.New(rand.NewSource(1))
	now := int32(0)
	mkBatch := func(n int) []tuple.Tuple {
		out := make([]tuple.Tuple, n)
		for i := range out {
			out[i] = tuple.Tuple{
				Stream: tuple.StreamID(r.Intn(2)),
				Key:    r.Int31n(100_000),
				TS:     now,
			}
		}
		return out
	}
	// Pre-fill the window.
	for i := 0; i < 50; i++ {
		now += 100
		m.Process(0, now, mkBatch(500))
	}
	b.ResetTimer()
	outputs := int64(0)
	for i := 0; i < b.N; i++ {
		now += 100
		res := m.Process(0, now, mkBatch(500))
		outputs += res.Outputs
	}
	b.ReportMetric(float64(outputs)/float64(b.N), "outputs/round")
}

func BenchmarkExtendibleHashSplit(b *testing.B) {
	type bucket struct{ n int }
	for i := 0; i < b.N; i++ {
		d := exthash.New(&bucket{})
		d.SetMaxDepth(12)
		for h := uint64(0); h < 1<<10; h++ {
			d.Split(h*0x9e3779b97f4a7c15, func(old *bucket, bit uint) (*bucket, *bucket) {
				return &bucket{n: old.n / 2}, &bucket{n: old.n / 2}
			})
		}
	}
}

func BenchmarkWindowAppendExpire(b *testing.B) {
	s := window.NewStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int32(i)
		s.Append(tuple.Packed{Key: int32(i), TS: ts})
		if i%1024 == 0 {
			s.ExpireExact(ts-60_000, nil)
		}
	}
}

// BenchmarkReplication prices the buddy-replication extension (-replicate):
// one partition-group's steady-state distribution epoch with and without the
// replication round trip riding on it. Both variants ingest a Table-I-shaped
// epoch batch into the primary window stores and expire at the watermark;
// "on" additionally performs everything replication adds per epoch — the
// owner-side capture of the ingested runs, the WindowDelta encode through the
// batched frame writer, the buddy-side decode, and the shadow-store apply
// (AppendRun + Expire), mirroring core's captureRepl/replicator.flush and
// replicaSet.apply. The ns/op spread between the variants is the replication
// overhead; allocs/op is gated — the capture buffers, frame scratch, and
// shadow blocks are all reused, so the only steady-state allocations are the
// decoder's per-delta message and run slices.
func BenchmarkReplication(b *testing.B) {
	for _, name := range []string{"off", "on"} {
		replicate := name == "on"
		b.Run(name, func(b *testing.B) {
			const windowMs, epochMs = 30_000, 2_000
			s1, s2 := workload.Pair(workload.Config{
				Rate: 1500, Skew: 0.7, Domain: 10_000_000, Seed: 1,
			})
			now := int32(0)
			nextEpoch := func() []tuple.Tuple {
				batch := workload.Merge(s1.Batch(now, now+epochMs), s2.Batch(now, now+epochMs))
				now += epochMs
				return batch
			}
			var primary, shadow [2]*window.Store
			for s := range primary {
				primary[s] = window.NewStore()
				shadow[s] = window.NewStore()
			}
			ingest := func(stores [2]*window.Store, batch []tuple.Tuple, cutoff int32) {
				for _, t := range batch {
					stores[t.Stream].Append(t.Packed())
				}
				for s := range stores {
					stores[s].ExpireBlocks(cutoff, nil) // the live engine's policy
				}
			}
			// Warm both sides to steady state — a full window plus slack for
			// the block free lists to reach their high-water marks.
			for now < 2*windowMs {
				batch := nextEpoch()
				ingest(primary, batch, now-windowMs)
				ingest(shadow, batch, now-windowMs)
			}
			epochs := make([][]tuple.Tuple, b.N)
			for i := range epochs {
				epochs[i] = nextEpoch()
			}
			t0 := now - int32(b.N)*epochMs

			var runs [2][]tuple.Tuple // owner-side capture (captureRepl)
			var scratch []tuple.Packed
			var buf bytes.Buffer
			fw := wire.NewFrameWriter(&buf, 32<<10)
			rd := bytes.NewReader(nil)
			fr := wire.NewFrameReader(rd)
			tuples, replBytes := 0, int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i, batch := range epochs {
				cutoff := t0 + int32(i+1)*epochMs - windowMs
				if replicate {
					runs[0], runs[1] = runs[0][:0], runs[1][:0]
					for _, t := range batch {
						runs[t.Stream] = append(runs[t.Stream], t)
					}
				}
				ingest(primary, batch, cutoff)
				tuples += len(batch)
				if !replicate {
					continue
				}
				// Owner: one delta per owned group per epoch (replicator.flush).
				buf.Reset()
				wd := wire.WindowDelta{From: 0, Group: 0, Epoch: int64(i), Cutoff: cutoff}
				wd.Runs = runs
				if err := fw.Append(&wd); err != nil {
					b.Fatal(err)
				}
				if err := fw.Flush(); err != nil {
					b.Fatal(err)
				}
				replBytes += int64(buf.Len())
				// Buddy: decode and apply to the shadow stores (replicaSet.apply).
				rd.Reset(buf.Bytes())
				msg, err := fr.Next()
				if err != nil {
					b.Fatal(err)
				}
				got := msg.(*wire.WindowDelta)
				for s := 0; s < 2; s++ {
					scratch = scratch[:0]
					for _, t := range got.Runs[s] {
						scratch = append(scratch, t.Packed())
					}
					shadow[s].AppendRun(scratch)
					shadow[s].ExpireBlocks(got.Cutoff, nil)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/sec")
			if replicate {
				b.ReportMetric(float64(replBytes)/float64(b.N), "repl-bytes/epoch")
			}
		})
	}
}

// BenchmarkWireFraming times the live TCP transport's framing on one
// Table-I epoch exchange: for each of 4 slaves a Hello load report, a
// ~1500-tuple Batch (rate 1500 t/s per stream × t_d = 2 s, split over 4
// slaves), and a ResultBatch to the collector, encoded through a
// FrameWriter (messages coalesced into shared frames, scratch buffers
// reused) and decoded through a FrameReader. allocs/op is gated in CI.
func BenchmarkWireFraming(b *testing.B) {
	const slaves = 4
	epoch := func() []wire.Message {
		var msgs []wire.Message
		r := rand.New(rand.NewSource(9))
		for s := 0; s < slaves; s++ {
			msgs = append(msgs, &wire.Hello{
				Slave: int32(s), Epoch: 7, Occupancy: 0.3,
				MoveACKs: []int64{int64(s)},
			})
			tuples := make([]tuple.Tuple, 1500)
			for i := range tuples {
				tuples[i] = tuple.Tuple{
					Stream: tuple.StreamID(r.Intn(2)),
					Key:    r.Int31n(10_000_000),
					TS:     int32(i),
				}
			}
			msgs = append(msgs, &wire.Batch{Epoch: 7, Tuples: tuples})
			msgs = append(msgs, &wire.ResultBatch{Slave: int32(s), Outputs: 900})
		}
		return msgs
	}()

	b.Run("batched", func(b *testing.B) {
		var buf bytes.Buffer
		fw := wire.NewFrameWriter(&buf, 32<<10) // the default Config.WireBatchBytes
		rd := bytes.NewReader(nil)
		fr := wire.NewFrameReader(rd)
		for i := 0; i < b.N; i++ {
			buf.Reset()
			for _, m := range epoch {
				if err := fw.Append(m); err != nil {
					b.Fatal(err)
				}
			}
			if err := fw.Flush(); err != nil { // epoch boundary
				b.Fatal(err)
			}
			if i == 0 {
				b.SetBytes(int64(buf.Len()))
				b.ReportAllocs()
				b.ResetTimer()
			}
			rd.Reset(buf.Bytes())
			for range epoch {
				if _, err := fr.Next(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkWireMarshalBatch(b *testing.B) {
	batch := &wire.Batch{Epoch: 7, Tuples: make([]tuple.Tuple, 1000)}
	for i := range batch.Tuples {
		batch.Tuples[i] = tuple.Tuple{Stream: tuple.S1, Key: int32(i), TS: int32(i)}
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(wire.Marshal(batch))
	}
	b.SetBytes(int64(n))
}

func BenchmarkWireUnmarshalBatch(b *testing.B) {
	batch := &wire.Batch{Epoch: 7, Tuples: make([]tuple.Tuple, 1000)}
	for i := range batch.Tuples {
		batch.Tuples[i] = tuple.Tuple{Stream: tuple.S2, Key: int32(i), TS: int32(i)}
	}
	buf := wire.Marshal(batch)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBModelNext(b *testing.B) {
	g := bmodel.New(0.7, 10_000_000, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkPoissonBatch(b *testing.B) {
	s := workload.NewSource(tuple.S1, workload.Config{
		Rate: 1500, Skew: 0.7, Domain: 10_000_000, Seed: 1,
	})
	b.ResetTimer()
	from := int32(0)
	for i := 0; i < b.N; i++ {
		s.Batch(from, from+2000)
		from += 2000
	}
}

// BenchmarkDESPingPong measures kernel event throughput via two processes
// exchanging rendezvous messages.
func BenchmarkDESPingPong(b *testing.B) {
	env := des.NewEnv()
	q1 := des.NewQueue[int](env)
	q2 := des.NewQueue[int](env)
	n := b.N
	env.Spawn("ping", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			q1.Put(i)
			q2.Get(p)
		}
	})
	env.Spawn("pong", func(p *des.Proc) {
		for i := 0; i < n; i++ {
			q1.Get(p)
			p.Sleep(time.Microsecond)
			q2.Put(i)
		}
	})
	b.ResetTimer()
	if _, err := env.Run(); err != nil {
		b.Fatal(err)
	}
	env.Kill()
}
