package core

import (
	"errors"
	"fmt"
	"net"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/faultnet"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// elasticTestConfig is the shared cluster shape of the equivalence rows:
// W=4 join workers, a window spanning the whole run (so the final pair
// multiset is exactly the brute-force S1×S2 join), and a tight heartbeat.
func elasticTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Slaves = 3
	cfg.WindowMs = 600_000
	cfg.DistEpochMs = 250
	cfg.ReorgEpochMs = 2_500
	cfg.DurationMs = 12_000
	cfg.WarmupMs = 1_000
	cfg.HeartbeatMs = 150
	cfg.HeartbeatMisses = 3
	return cfg
}

// incrementalTestConfig shapes a cluster so transfers genuinely stream: four
// large partition-groups (~190 window tuples each by the end of the elastic
// workload) instead of the default sixty sparse ones, and a small
// ChunkTuples, so every rebalanced group spans as many installments as the
// reorganization deadline allows (t_r/t_d − 2 = 8).
func incrementalTestConfig(chunk int) Config {
	cfg := elasticTestConfig()
	cfg.Partitions = 4
	cfg.ChunkTuples = chunk
	return cfg
}

// clockTestConfig is a cluster whose expiry shows in its output: a 1 s
// window, so over a workload dense enough that one window block spans
// about as long, a pair wider than W + 2·t_d + one block span means some
// slave's expiry clock lagged the tuples' timestamps.
func clockTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.WindowMs = 1_000
	cfg.DistEpochMs = 250
	cfg.ReorgEpochMs = 1_000
	cfg.WarmupMs = 1_000
	cfg.HeartbeatMs = 150
	cfg.HeartbeatMisses = 3
	return cfg
}

// deployTestConfig is the synthetic-source cluster of the deployment rows.
func deployTestConfig(workers int) Config {
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Slaves = 2
	cfg.Rate = 600
	cfg.WindowMs = 3_000
	cfg.DistEpochMs = 250
	cfg.ReorgEpochMs = 2_500
	cfg.DurationMs = 5_000
	cfg.WarmupMs = 1_000
	cfg.Theta = 32 << 10
	cfg.Domain = 20_000
	return cfg
}

// slavesAt is one slave of cfg per offset, joining through ServeSlave.
func slavesAt(cfg Config, at ...time.Duration) []slaveSpec {
	specs := make([]slaveSpec, len(at))
	for i := range specs {
		specs[i] = slaveSpec{cfg: cfg, at: at[i]}
	}
	return specs
}

// tcpSlavesAt is slavesAt through the ServeSlaveTCP adapter: slave i listens
// for the mesh on the i-th of a list of any-port addresses.
func tcpSlavesAt(cfg Config, at ...time.Duration) []slaveSpec {
	specs := slavesAt(cfg, at...)
	mesh := slices.Repeat([]string{"127.0.0.1:0"}, len(at))
	for i := range specs {
		specs[i].serve = func(cfg Config, ctl, res string) error {
			return ServeSlaveTCP(cfg, i, ctl, res, mesh)
		}
	}
	return specs
}

// latencyRules are seeded 10-20ms latency on every write of every
// connection a transport dials and accepts.
func latencyRules() (dial, accept *faultnet.Rule, tr *faultnet.Transport) {
	dial = &faultnet.Rule{Latency: 10 * time.Millisecond, Jitter: 10 * time.Millisecond}
	accept = &faultnet.Rule{Listen: true, Latency: 10 * time.Millisecond, Jitter: 10 * time.Millisecond}
	return dial, accept, faultnet.New(7, dial, accept)
}

// clusterTable is every TCP cluster scenario. It is built afresh for each
// run, so fault rules start unfired.
//
// Most rows replay one finite tuple list through the master's ingestor seam
// with a window that outlives the run, so the ground truth is the
// brute-force S1×S2 join of the list. Slaves join at staggered offsets (at
// i·400ms) where identities must follow slot order.
func clusterTable() []clusterRow {
	const ms = time.Millisecond
	work := elasticWorkload(400, 8_000, 20, 48)
	want := bruteForcePairs(work)
	var rows []clusterRow
	add := func(r clusterRow) { rows = append(rows, r) }

	// TestChaosEquivalence: a W=4 elastic cluster driven through the
	// faultnet transport keeps the multiset exactly equal to the ground
	// truth when the fault is recoverable, and an exactly-accounted subset
	// when state is genuinely lost.
	{
		// Latency on every connection the cluster makes — control,
		// heartbeat, mesh, replication, collector and sink paths all slow
		// down together. Nothing may be lost, nobody evicted: latency is
		// not death.
		cfg := elasticTestConfig()
		cfg.MinSlaves = 3
		dial, accept, tr := latencyRules()
		cfg.Transport = tr
		add(clusterRow{suite: "TestChaosEquivalence", name: "latency-jitter",
			cfg: cfg, work: work, sink: strictSink, slaves: slavesAt(cfg, 0, 400*ms, 800*ms),
			check: func(t *testing.T, out *clusterOut) {
				if out.res.MovesDegraded != 0 {
					t.Errorf("latency degraded %d moves", out.res.MovesDegraded)
				}
				sameAsOracle(t, out, want)
				if dial.Fired() == 0 || accept.Fired() == 0 {
					t.Errorf("latency rules never fired (dial %d, accept %d)", dial.Fired(), accept.Fired())
				}
			}})
	}
	{
		// Buddy replication on; the first slave's replication stream to its
		// buddy is reset after 4KB. The replicator must redial and recover
		// with a full snapshot, invisibly to the output. Slave 0 never
		// dials another founder's mesh address for state movement (later
		// joiners dial earlier ones), so a reset rule on the buddies'
		// pinned mesh addresses hits exactly the replication stream.
		cfg := elasticTestConfig()
		cfg.MinSlaves = 3
		cfg.Replicate = true
		r1 := &faultnet.Rule{ResetAfter: 4 << 10, Times: 1}
		r2 := &faultnet.Rule{ResetAfter: 4 << 10, Times: 1}
		cfg0 := cfg
		cfg0.Transport = faultnet.New(11, r1, r2)
		add(clusterRow{suite: "TestChaosEquivalence", name: "replication-reset",
			cfg: cfg, work: work, sink: strictSink,
			slaves: []slaveSpec{
				{cfg: cfg0},
				{cfg: cfg, pin: true, at: 400 * ms},
				{cfg: cfg, pin: true, at: 800 * ms},
			},
			aim: func(_ string, mesh []string) { r1.Addr, r2.Addr = mesh[1], mesh[2] },
			check: func(t *testing.T, out *clusterOut) {
				if out.res.MovesDegraded != 0 {
					t.Errorf("replication reset degraded %d moves", out.res.MovesDegraded)
				}
				if fired := r1.Fired() + r2.Fired(); fired != 1 {
					t.Errorf("replication stream resets fired = %d, want exactly 1 (hits %d/%d)",
						fired, r1.Hits(), r2.Hits())
				}
				sameAsOracle(t, out, want)
			}})
	}
	{
		// 2 → 3 scale-out where the joiner's mesh link to one founder is a
		// one-way blackhole: its mesh handshake is swallowed and its reads
		// on that link starve. Moves across the partition must complete
		// degraded — empty install, counted in MovesDegraded — within the
		// wire-deadline budget; neither side may be evicted, and no pair
		// may be invented or duplicated.
		cfg := elasticTestConfig()
		cfg.MinSlaves = 2
		cfg.WireDeadlineMs = 1_500 // meshRd 4s, ctlRd 5.5s: stalls stay under eviction
		hole := &faultnet.Rule{Blackhole: true}
		joinerCfg := cfg
		joinerCfg.Transport = faultnet.New(13, hole)
		add(clusterRow{suite: "TestChaosEquivalence", name: "mesh-partition",
			cfg: cfg, work: work, sink: strictSink,
			slaves: []slaveSpec{
				{cfg: cfg, pin: true},
				{cfg: cfg, at: 400 * ms},
				{cfg: joinerCfg, at: 3 * time.Second},
			},
			aim: func(_ string, mesh []string) { hole.Addr = mesh[0] },
			check: func(t *testing.T, out *clusterOut) {
				if out.res.Joins != 3 {
					t.Errorf("joins = %d, want 3", out.res.Joins)
				}
				if out.res.GroupsRebalanced == 0 {
					t.Error("no groups rebalanced toward the joiner — the scale-out was vacuous")
				}
				if out.res.MovesDegraded == 0 {
					t.Error("no moves recorded as degraded — the partition's state loss went unaccounted")
				}
				if hole.Fired() == 0 {
					t.Error("blackhole rule never fired")
				}
				noneInvented(t, out, want)
				noReplays(t, out)
				t.Logf("%d of %d pairs delivered, %d moves degraded", out.pairs.total(), want.total(), out.res.MovesDegraded)
			}})
	}
	{
		// Every slave's sink connection freezes for 1.5s once 8KB of pairs
		// have shipped — inside the 3s write deadline, so the connection
		// must survive and deliver everything, exactly once. The per-epoch
		// delivery barrier rides through the stall (Emit backpressure, not
		// drops).
		cfg := elasticTestConfig()
		cfg.MinSlaves = 3
		cfg.WireDeadlineMs = 3_000
		stall := &faultnet.Rule{WriteStallAfter: 8 << 10, Stall: 1500 * ms}
		scfg := cfg
		scfg.Transport = faultnet.New(17, stall)
		add(clusterRow{suite: "TestChaosEquivalence", name: "stalled-sink",
			cfg: cfg, work: work, sink: strictSink, slaves: slavesAt(scfg, 0, 400*ms, 800*ms),
			aim: func(sink string, _ []string) { stall.Addr = sink },
			check: func(t *testing.T, out *clusterOut) {
				if stall.Fired() == 0 {
					t.Error("stall rule never fired — the sink load never crossed the trigger")
				}
				sameAsOracle(t, out, want)
			}})
	}

	// TestElasticEquivalence: a cluster that scales out (2→3, a slave joins
	// mid-run) and one that scales in by crash (3→2, a slave is killed
	// mid-run) both keep the join correct with W=4 join workers.
	{
		// A two-slave cluster nobody joins late or leaves, through the
		// ServeSlaveTCP adapter: establishes that the ground truth is what
		// the system actually computes, so the elastic comparisons compare
		// against a meaningful reference.
		cfg := elasticTestConfig()
		cfg.Slaves = 2
		add(clusterRow{suite: "TestElasticEquivalence", name: "static-baseline",
			cfg: cfg, work: work, sink: strictSink, slaves: tcpSlavesAt(cfg, 0, 0),
			check: func(t *testing.T, out *clusterOut) {
				sameAsOracle(t, out, want)
				if out.res.Outputs == 0 {
					t.Fatal("baseline produced no outputs")
				}
			}})
	}
	{
		// 2 → 3: a third slave joins ~3s in and receives a rebalance. The
		// multiset must equal the ground truth exactly — elasticity must
		// not lose, duplicate, or invent pairs.
		cfg := elasticTestConfig()
		cfg.MinSlaves = 2
		add(clusterRow{suite: "TestElasticEquivalence", name: "scale-out",
			cfg: cfg, work: work, sink: strictSink, slaves: slavesAt(cfg, 0, 0, 3*time.Second),
			check: func(t *testing.T, out *clusterOut) {
				if out.res.Joins != 3 {
					t.Errorf("joins = %d, want 3", out.res.Joins)
				}
				if out.res.GroupsRebalanced == 0 {
					t.Error("no groups rebalanced toward the joiner — the scale-out was vacuous")
				}
				sameAsOracle(t, out, want)
				t.Logf("scale-out: %d pairs, %d groups rebalanced, %dms cumulative stall",
					out.tally.Pairs(), out.res.GroupsRebalanced, out.res.RebalanceStallMs)
			}})
	}
	{
		// 2 → 1 → 2: slave 1 leaves gracefully 1.5s in, draining every group
		// to slave 0 at once; the master releases it at a reorganization
		// boundary (≈5.5s), and a third process joining at 6.5s takes its
		// slot. The drain and the rebalance toward the joiner move state
		// losslessly, so the multiset must equal the ground truth exactly.
		// The workload runs to 11s so the joiner joins tuples too; its
		// sink restarts slot 1's emission sequence, which the collector
		// flags, as it does for any reused slave id.
		cfg := elasticTestConfig()
		cfg.Slaves = 2
		slaves := slavesAt(cfg, 0, 400*ms, 6_500*ms)
		slaves[1].leaveAt = 1_500 * ms
		work := elasticWorkload(400, 11_000, 20, 48)
		want := bruteForcePairs(work)
		add(clusterRow{suite: "TestElasticEquivalence", name: "leave-then-rejoin",
			cfg: cfg, work: work, sink: strictSink, slaves: slaves,
			check: func(t *testing.T, out *clusterOut) {
				if out.res.Joins != 3 || out.res.Leaves != 1 || out.res.Evictions != 0 {
					t.Errorf("joins %d, leaves %d, evictions %d; want 3, 1, 0",
						out.res.Joins, out.res.Leaves, out.res.Evictions)
				}
				admitted := 0
				for _, line := range out.log {
					if strings.HasPrefix(line, "membership: slave 1 joined") {
						admitted++
					}
				}
				if admitted != 2 {
					t.Errorf("slot 1 admitted %d times, want 2: the joiner did not take the leaver's slot", admitted)
				}
				if missing, extra := oracleDiff(t, out, want); missing > 0 || extra > 0 {
					t.Errorf("%d pairs missing, %d unexpected", missing, extra)
				}
				if out.tally.SeqDups() == 0 {
					t.Error("slot 1's second occupant emitted nothing the collector could tell apart")
				}
			}})
	}
	// 3 → 2: one slave is killed 4s in (every connection severed at once).
	// The master must detect the crash within the heartbeat budget, re-adopt
	// the lost groups, and finish: the result is a subset of the ground
	// truth (the dead slave's windows are gone) that still contains every
	// pair formed entirely after the cluster healed. A full-roster cluster
	// (MinSlaves 0: every slot is a founder) recovers the same way — a
	// crashed slave is evicted, never fatal.
	for _, c := range []struct {
		name      string
		minSlaves int
	}{{"scale-in-crash", 3}, {"full-roster-crash", 0}} {
		cfg := elasticTestConfig()
		cfg.MinSlaves = c.minSlaves
		slaves := slavesAt(cfg, 0, 0, 0)
		slaves[0].killAt = 4 * time.Second
		add(clusterRow{suite: "TestElasticEquivalence", name: c.name,
			cfg: cfg, work: work, sink: tolerantSink, slaves: slaves,
			check: func(t *testing.T, out *clusterOut) {
				if out.res.GroupsRebalanced == 0 {
					t.Error("no groups re-adopted after the crash")
				}
				// The heartbeat budget is 450ms; the master often notices
				// sooner through the failed epoch exchange. The bound allows
				// scheduler slack on a loaded machine — the tight
				// deterministic bounds live in TestHeartbeatFailureDetection.
				budget := cfg.HeartbeatMs*int32(cfg.HeartbeatMisses) + 2_000
				if out.evictedMs < 0 {
					t.Error("no eviction was ever logged")
				} else if lat := out.evictedMs - out.killedMs; lat > budget {
					t.Errorf("crash detected %d ms after the kill, beyond the heartbeat budget", lat)
				} else {
					t.Logf("crash detected %d ms after the kill", lat)
				}
				noneInvented(t, out, want)
				healedPresent(t, out, want, 7_000)
				t.Logf("scale-in: %d of %d ground-truth pairs survived the crash", out.pairs.total(), want.total())
			}})
	}

	// TestCrashRecoveryEquivalence: a three-slave cluster loses one slave to
	// JoinOptions.failAt — it delivers everything it produced, then severs
	// every connection at an exact epoch boundary, so no timer decides what
	// was in flight. Epoch 15 (3.75s in) sits mid-reorganization-interval,
	// so the eviction races no planned movement, only the replica delta
	// stream flushed an instant before. With buddy replication the crashed
	// slave's windows are promoted from its buddy's shadows and the output
	// is exactly the ground truth; without, the crash visibly loses pairs
	// and the master's PairsLost estimate says so.
	crashRecovery := func(name string, replicate bool, check func(t *testing.T, out *clusterOut)) {
		cfg := elasticTestConfig()
		cfg.MinSlaves = 3
		cfg.Replicate = replicate
		slaves := slavesAt(cfg, 0, 0, 0)
		slaves[0].opts.failAt = 15
		add(clusterRow{suite: "TestCrashRecoveryEquivalence", name: name,
			cfg: cfg, work: work, sink: strictSink, slaves: slaves, // failAt delivers, then dies: sinks close cleanly
			check: check})
	}
	crashRecovery("with-replication", true, func(t *testing.T, out *clusterOut) {
		sameAsOracle(t, out, want)
		if out.res.GroupsPromoted == 0 {
			t.Error("no groups promoted from replicas — the crash recovery was vacuous")
		}
		if out.res.LostWindowTuples != 0 || out.res.PairsLost != 0 {
			t.Errorf("master estimates loss despite full promotion: %d window tuples, %d pairs",
				out.res.LostWindowTuples, out.res.PairsLost)
		}
	})
	crashRecovery("without-replication", false, func(t *testing.T, out *clusterOut) {
		if noneInvented(t, out, want) == 0 {
			t.Error("no pairs lost without replication — the crash-recovery comparison is vacuous")
		}
		if out.res.GroupsPromoted != 0 {
			t.Errorf("%d groups promoted with replication off", out.res.GroupsPromoted)
		}
		if out.res.LostWindowTuples == 0 || out.res.PairsLost == 0 {
			t.Errorf("master failed to estimate the loss: %d window tuples, %d pairs",
				out.res.LostWindowTuples, out.res.PairsLost)
		}
	})

	// The same crash in the middle of epoch 15: the slave takes its epoch
	// batch and, in the late rows, its first data slot's batch too, or in
	// the last rows every data slot's batch but the epoch's last, then
	// closes every connection before its next data slot, as a killed
	// process does. The master finds the close waiting when it is about to
	// send that data slot and fails the send (a plain Send into the
	// half-closed socket would succeed). The tuples of that send go back to
	// the mini-buffers and on to the groups' new owners, so every pair of
	// two tuples that arrived after the last batch the slave took is
	// delivered; what the dead slave held — its window without
	// replication, the batches it took in epoch 15 either way — may be
	// missing. The crashing slave joins first, so it is slave 0 and its
	// exchange and data slots open each of their instants.
	for _, c := range []struct {
		name     string
		failSlot int
	}{{"mid-epoch", 1}, {"mid-epoch-late", 2}, {"mid-epoch-last", liveDataSlots - 1}} {
		for _, replicate := range []bool{true, false} {
			cfg := elasticTestConfig()
			cfg.MinSlaves = 3
			cfg.Replicate = replicate
			slaves := slavesAt(cfg, 0, 400*ms, 800*ms)
			failSlot := c.failSlot
			slaves[0].opts.failAt, slaves[0].opts.failSlot = 15, failSlot
			name := c.name + "-without-replication"
			if replicate {
				name = c.name + "-with-replication"
			}
			add(clusterRow{suite: "TestCrashRecoveryEquivalence", name: name,
				cfg: cfg, work: work, sink: tolerantSink, slaves: slaves,
				check: func(t *testing.T, out *clusterOut) {
					sendFailed := regexp.MustCompile(`slave 0 dead \(connection failed: tcp (send|flush)`)
					if !slices.ContainsFunc(out.log, sendFailed.MatchString) {
						t.Fatal("no data-slot send to the crashed slave 0 failed — the crash missed the data slot")
					}
					noneInvented(t, out, want)
					// The first pull opens epoch 0, at the grid's origin.
					// The last batch slave 0 took left at its exchange
					// (failSlot 1) or its data slot failSlot−1, t_d/k
					// apart, and the first pull at that instant is slave
					// 0's: the batch, lost with the slave, took the tuples
					// that arrived before it; the failed send, those from
					// then on.
					td, k := cfg.DistEpochMs, int32(cfg.dataSlots())
					last := out.pulls[0] + 15*td + int32(failSlot-1)*td/k
					i := slices.IndexFunc(out.pulls, func(p int32) bool { return p >= last-1 })
					if i < 0 {
						t.Fatalf("no pull in epoch 15 of %d", len(out.pulls))
					}
					healedPresent(t, out, want, out.pulls[i])
				}})
		}
	}

	// TestIncrementalTransferEquivalence: movements that stream over many
	// epochs while the supplier keeps processing still produce exactly the
	// ground truth — under a clean rebalance, under a consumer crash
	// mid-transfer with buddy replication recovering the windows, and under
	// injected wire latency.
	{
		cfg := incrementalTestConfig(16)
		cfg.MinSlaves = 2
		add(clusterRow{suite: "TestIncrementalTransferEquivalence", name: "scale-out-incremental",
			cfg: cfg, work: work, sink: strictSink, slaves: slavesAt(cfg, 0, 0, 3*time.Second),
			check: func(t *testing.T, out *clusterOut) {
				if out.res.Joins != 3 {
					t.Errorf("joins = %d, want 3", out.res.Joins)
				}
				if out.res.GroupsRebalanced == 0 {
					t.Error("no groups rebalanced toward the joiner — no transfer ever streamed")
				}
				if out.res.MovesCompleted == 0 {
					t.Error("no movements completed — every transfer stalled")
				}
				if out.res.MovesDegraded != 0 {
					t.Errorf("%d moves degraded on a healthy cluster", out.res.MovesDegraded)
				}
				sameAsOracle(t, out, want)
			}})
	}
	{
		// The joiner dies while its rebalance is still streaming in (small
		// chunks over big groups make the transfers span the kill epoch).
		// The supplier aborts its outgoing streams, the master unwinds the
		// in-flight moves, and the lost-in-transit windows are promoted
		// from the suppliers' buddies: the output is still exact.
		cfg := incrementalTestConfig(8)
		cfg.MinSlaves = 2
		cfg.Replicate = true
		slaves := slavesAt(cfg, 0, 0, 3*time.Second)
		// Joins ~3s in (epoch ~12), takes part from the next reorg boundary
		// (epoch 20) when the rebalance transfers start, and dies three
		// epochs later with those streams still in flight.
		slaves[2].opts.failAt = 23
		add(clusterRow{suite: "TestIncrementalTransferEquivalence", name: "crash-mid-transfer",
			cfg: cfg, work: work, sink: tolerantSink, slaves: slaves,
			check: func(t *testing.T, out *clusterOut) {
				if out.res.GroupsRebalanced == 0 {
					t.Error("no groups rebalanced toward the joiner before the crash — the kill raced nothing")
				}
				// The kill must land mid-stream: the master must find moves
				// toward the joiner still in flight, and even the smallest
				// group moved must have had installments left to send —
				// what arrived before the directive epoch alone makes a
				// snapshot of at least four of them.
				unwound := 0
				unwoundRE := regexp.MustCompile(`(\d+) in-flight moves unwound`)
				for _, line := range out.log {
					if m := unwoundRE.FindStringSubmatch(line); m != nil {
						unwound, _ = strconv.Atoi(m[1])
					}
				}
				if unwound == 0 {
					t.Error("the joiner died with no move in flight toward it — the kill missed the streams")
				}
				perGroup := make(map[int32]int)
				for _, tp := range work {
					if tp.TS < 19*cfg.DistEpochMs {
						perGroup[cfg.GroupOfKey(tp.Key)]++
					}
				}
				for g, n := range perGroup {
					if size := cfg.installmentSize(n); (n+size-1)/size < 4 {
						t.Errorf("group %d: a %d-tuple snapshot streams in %d installments, want >= 4 so epoch 23 is mid-stream",
							g, n, (n+size-1)/size)
					}
				}
				sameAsOracle(t, out, want)
				if out.res.LostWindowTuples != 0 || out.res.PairsLost != 0 {
					t.Errorf("master estimates loss despite promotion: %d window tuples, %d pairs",
						out.res.LostWindowTuples, out.res.PairsLost)
				}
			}})
	}
	{
		// Latency while the joiner's rebalance streams installment by
		// installment: slow wires stretch the schedule but may not lose,
		// duplicate or reorder anything, and latency is still not death.
		cfg := incrementalTestConfig(16)
		cfg.MinSlaves = 2
		dial, accept, tr := latencyRules()
		cfg.Transport = tr
		add(clusterRow{suite: "TestIncrementalTransferEquivalence", name: "chaos-latency",
			cfg: cfg, work: work, sink: strictSink, slaves: slavesAt(cfg, 0, 0, 3*time.Second),
			check: func(t *testing.T, out *clusterOut) {
				if out.res.GroupsRebalanced == 0 {
					t.Error("no groups rebalanced under latency — no transfer ever streamed")
				}
				if out.res.MovesDegraded != 0 {
					t.Errorf("latency degraded %d moves", out.res.MovesDegraded)
				}
				sameAsOracle(t, out, want)
				if dial.Fired() == 0 || accept.Fired() == 0 {
					t.Errorf("latency rules never fired (dial %d, accept %d)", dial.Fired(), accept.Fired())
				}
			}})
	}

	// TestFoundersLateShareMasterClock: founders that dial well after the
	// master started still run on the master's clock and grid. The grid
	// starts at formation, so every epoch's first Pull lands at formation +
	// e·t_d — not an epoch early, leaving the tuples of the gap until the
	// founder's Hello to wait an extra epoch — and the founders' expiry
	// reads the tuples' time base, so no pair outlives the window by more
	// than the block and epoch slack.
	{
		cfg := clockTestConfig()
		cfg.Slaves = 2
		cfg.DurationMs = 5_000
		work := elasticWorkload(400, 8_000, 4, 4)
		const late = 1500 * ms
		add(clusterRow{suite: "TestFoundersLateShareMasterClock", name: "founders-dial-1500ms",
			serial: "asserts that pull times land within a few ms of the grid",
			cfg:    cfg, work: work, sink: strictSink, slaves: slavesAt(cfg, late, late),
			check: func(t *testing.T, out *clusterOut) {
				if out.formedMs < int32(late/ms) {
					t.Fatalf("cluster formed at %d ms, before the founders dialed", out.formedMs)
				}
				checkPairGaps(t, cfg, out, work)
				if len(out.gap) != 2 {
					t.Errorf("pairs from %d slaves, want both", len(out.gap))
				}
				// Both slaves stay active, so the master pulls twice per
				// epoch at their exchanges and twice at each data slot:
				// the first of each epoch's pulls opens the epoch. The
				// grid's phase is read off the earliest of them, so one
				// late pull cannot skew the rest.
				td := cfg.DistEpochMs
				pulls, n := out.pulls, 2*cfg.dataSlots()
				if len(pulls) < n*int(cfg.DurationMs/td) {
					t.Fatalf("%d pulls over a %d ms run", len(pulls), cfg.DurationMs)
				}
				grid := pulls[0]
				for e := 0; n*e < len(pulls); e++ {
					grid = min(grid, pulls[n*e]-int32(e)*td)
				}
				if d := grid - out.formedMs; d < -2 || d > td/5 {
					t.Errorf("epoch grid starts %d ms after the cluster formed, want at formation", d)
				}
				var off []int32
				for e := 0; n*e < len(pulls); e++ {
					d := pulls[n*e] - grid - int32(e)*td
					if d > td/5 {
						t.Errorf("epoch %d pulled at %d ms, %d ms after grid start + e·t_d", e, pulls[n*e], d)
					}
					off = append(off, d)
				}
				slices.Sort(off)
				if med := off[len(off)/2]; med > 5 {
					t.Errorf("median pull %d ms after grid start + e·t_d, want within a few ms", med)
				}
			}})
	}
	// TestJoinerOnMasterGrid: a slave admitted mid-run lands on the master's
	// grid and clock. Its anchor leaves at the start of its admission epoch,
	// so its Hello meets the master's service slot and its wait for each
	// Batch is a fraction of the epoch, not the whole of it; its expiry
	// reads the master's time, so its pairs stay inside the same bound as
	// the founders'.
	{
		cfg := clockTestConfig()
		cfg.Slaves = 3
		cfg.MinSlaves = 2
		cfg.DurationMs = 5_500
		work := elasticWorkload(400, 7_000, 1, 12)
		var waits []time.Duration // joiner goroutine only; read after the run
		slaves := slavesAt(cfg, 0, 0, 2200*ms)
		slaves[2].opts.batchWait = func(d time.Duration) { waits = append(waits, d) }
		add(clusterRow{suite: "TestJoinerOnMasterGrid", name: "joiner-at-2200ms",
			serial: "asserts that the joiner waits under t_d/5 for each batch",
			cfg:    cfg, work: work, sink: strictSink, slaves: slaves,
			check: func(t *testing.T, out *clusterOut) {
				if out.res.Joins != 3 || out.res.GroupsRebalanced == 0 {
					t.Fatalf("joins %d, groups rebalanced %d: the joiner never took part", out.res.Joins, out.res.GroupsRebalanced)
				}
				if len(waits) < 4 {
					t.Fatalf("joiner exchanged %d epochs", len(waits))
				}
				td := time.Duration(cfg.DistEpochMs) * ms
				for i, w := range waits {
					if w >= td/5 {
						t.Errorf("joiner waited %v for its batch in exchange %d, want under t_d/5 = %v", w, i, td/5)
					}
				}
				if _, ok := out.gap[2]; !ok {
					t.Fatal("the joiner emitted no pairs")
				}
				checkPairGaps(t, cfg, out, work)
				t.Logf("joiner batch waits %v", waits)
			}})
	}

	// TestTCPClusterEndToEnd/sub-epoch-delivery: over TCP too, a tuple
	// waits for its slave's next data slot, t_d/5 away, not the next epoch
	// exchange, so the mean production delay stays under 0.13·t_d (three
	// deliveries per epoch hold it near t_d/6), with every pair delivered
	// exactly once.
	{
		cfg := elasticTestConfig()
		cfg.Slaves = 2
		add(clusterRow{suite: "TestTCPClusterEndToEnd", name: "sub-epoch-delivery",
			cfg: cfg, work: work, sink: strictSink, slaves: slavesAt(cfg, 0, 0),
			check: func(t *testing.T, out *clusterOut) {
				sameAsOracle(t, out, want)
				td := time.Duration(cfg.DistEpochMs) * ms
				if d := out.res.MeanDelay(); d >= td*13/100 {
					t.Errorf("mean delay %v, want under 0.13·t_d = %v", d, td*13/100)
				}
				t.Logf("mean delay %v at t_d %v", out.res.MeanDelay(), td)
			}})
	}

	// TestTCPClusterEndToEnd: the deployment end to end on the synthetic
	// sources, with 4 join workers per slave (the worker pool) and with one
	// (the inline loop).
	for _, c := range []struct {
		name    string
		workers int
	}{{"batched", 4}, {"inline", 1}} {
		cfg := deployTestConfig(c.workers)
		add(clusterRow{suite: "TestTCPClusterEndToEnd", name: c.name,
			cfg: cfg, slaves: tcpSlavesAt(cfg, 0, 0),
			check: func(t *testing.T, out *clusterOut) {
				if out.res.Outputs == 0 {
					t.Fatal("TCP cluster produced no outputs")
				}
				if out.res.EpochsServed < 10 {
					t.Fatalf("epochs = %d", out.res.EpochsServed)
				}
				t.Logf("tcp cluster: outputs=%d delay=%v epochs=%d frames=%d/%d msgs",
					out.res.Outputs, out.res.MeanDelay(), out.res.EpochsServed,
					out.res.Master.WireFramesSent+out.res.Master.WireFramesRecv,
					out.res.Master.MsgsSent+out.res.Master.MsgsRecv)
			}})
	}

	// TestFullRosterFormation: with MinSlaves 0 the cluster forms only when
	// all cfg.Slaves have joined — the epoch schedule does not start on the
	// first join, however long the last slave takes — and a control
	// connection that opens with anything but a join handshake or a Ping
	// (here: the registration Hello of an sjoin-slave predating -join) is
	// logged and closed instead of vanishing silently. So is a join
	// handshake of another wire.Version, which is also told the master's.
	{
		cfg := deployTestConfig(1)
		cfg.DurationMs = 3_000
		cfg.WarmupMs = 500
		const lateBy = 1500 * ms
		stale := slaveSpec{at: lateBy / 3, serve: func(_ Config, ctl, _ string) error {
			c, err := net.Dial("tcp", ctl)
			if err != nil {
				return fmt.Errorf("stale slave dial: %w", err)
			}
			defer c.Close()
			conn := engine.WrapTCPBatched(engine.NewLiveEnv().NewProc("stale-slave"), c, 0)
			conn.Send(&wire.Hello{Slave: 0, Epoch: startEpoch})
			if tolerateTCP(func() { conn.Recv() }) {
				return errors.New("master answered a pre-join registration Hello instead of closing it")
			}
			return nil
		}}
		other := slaveSpec{at: lateBy / 3, serve: func(_ Config, ctl, _ string) error {
			c, err := net.Dial("tcp", ctl)
			if err != nil {
				return fmt.Errorf("other-version slave dial: %w", err)
			}
			defer c.Close()
			conn := engine.WrapTCPBatched(engine.NewLiveEnv().NewProc("other-version-slave"), c, 0)
			conn.Send(&wire.Hello{Slave: -1, Epoch: joinEpoch})
			conn.Send(&wire.Membership{Epoch: wire.Version + 1, Self: -1,
				Slaves: []wire.MemberSpec{{ID: -1, Addr: "127.0.0.1:1", Workers: 1}}})
			var reply wire.Message
			if !tolerateTCP(func() { reply = conn.Recv() }) {
				return errors.New("master hung up on another wire version without saying its own")
			}
			if ms, ok := reply.(*wire.Membership); !ok || ms.Self != -1 || ms.Epoch != wire.Version {
				return fmt.Errorf("master answered another wire version with %+v, want Membership{Self: -1, Epoch: %d}", reply, wire.Version)
			}
			if tolerateTCP(func() { conn.Recv() }) {
				return errors.New("master kept talking to a slave of another wire version")
			}
			return nil
		}}
		add(clusterRow{suite: "TestFullRosterFormation", name: "last-founder-1500ms-late",
			cfg: cfg, slaves: append(tcpSlavesAt(cfg, 0, lateBy), stale, other),
			check: func(t *testing.T, out *clusterOut) {
				joins, formedAt, rejected, versionLogged := 0, -1, false, false
				for i, line := range out.log {
					switch {
					case strings.Contains(line, "joined"):
						joins++
					case strings.Contains(line, "cluster formed"):
						formedAt = i
						if joins != cfg.Slaves {
							t.Errorf("cluster formed after %d joins, want %d", joins, cfg.Slaves)
						}
					case strings.Contains(line, "control connection from") &&
						strings.Contains(line, "Hello{Slave: 0, Epoch: -1}"):
						rejected = true
					case strings.Contains(line, fmt.Sprintf("speaks wire v%d, this master v%d, closing", wire.Version+1, wire.Version)):
						versionLogged = true
					}
				}
				if !versionLogged {
					t.Error("the join of another wire version was closed without a membership log line naming both")
				}
				if formedAt < 0 {
					t.Fatal("formation was never logged")
				}
				if out.formedMs < int32(lateBy/ms) {
					t.Errorf("cluster formed %d ms in, before the last slave joined at %v", out.formedMs, lateBy)
				}
				if !rejected {
					t.Error("the stale registration was closed without a membership log line")
				}
				if out.res.Joins != cfg.Slaves || out.res.Evictions != 0 {
					t.Errorf("joins = %d, evictions = %d, want %d and 0", out.res.Joins, out.res.Evictions, cfg.Slaves)
				}
				if out.res.Outputs == 0 {
					t.Error("no outputs")
				}
				// Epochs are paced from the anchors: had the schedule
				// started with the first join, the wait for the second
				// slave would have added lateBy/t_d epochs (6 here) to the
				// run's DurationMs/t_d.
				if limit := int64(cfg.DurationMs/cfg.DistEpochMs) + 3; out.res.EpochsServed > limit {
					t.Errorf("epochs served = %d, want at most %d — the schedule ran while the cluster was forming",
						out.res.EpochsServed, limit)
				}
			}})
	}

	// TestTCPClusterSocketSink: the full deployment with the slaves dialing
	// a downstream consumer directly (query 0's SinkAddr, declared on the
	// master); the consumer's count matches the master's result summary
	// exactly.
	{
		cfg := deployTestConfig(2)
		add(clusterRow{suite: "TestTCPClusterSocketSink", name: "two-slaves",
			cfg: cfg, sink: strictSink, slaves: tcpSlavesAt(cfg, 0, 0),
			check: func(t *testing.T, out *clusterOut) {
				if out.res.Outputs == 0 {
					t.Fatal("cluster produced no outputs")
				}
				var perGroupSum int64
				for _, n := range out.tally.PerGroup() {
					perGroupSum += n
				}
				if out.tally.Pairs() != out.res.Outputs || perGroupSum != out.res.Outputs {
					t.Fatalf("consumer received %d pairs (%d per-group), master summary says %d",
						out.tally.Pairs(), perGroupSum, out.res.Outputs)
				}
				t.Logf("cluster → collect: %d pairs over %d groups", out.res.Outputs, len(out.tally.PerGroup()))
			}})
	}

	// TestTCPClusterSocketSink/in-process-sink: the benchmark's TCP arm.
	// Master and slaves share one Config whose in-process Sink is query 0's,
	// and no Queries: the master sends no QuerySet, so each slave keeps the
	// Sink it was given. Every oracle pair reaches it exactly once, and the
	// master counts exactly those.
	{
		cfg := elasticTestConfig()
		cfg.Slaves = 2
		sink := &memSink{ms: make(pairMultiset[pairFP])}
		cfg.Sink = sink
		add(clusterRow{suite: "TestTCPClusterSocketSink", name: "in-process-sink",
			cfg: cfg, work: work, slaves: tcpSlavesAt(cfg, 0, 0),
			check: func(t *testing.T, out *clusterOut) {
				if missing, extra := sink.ms.diff(want); missing > 0 || extra > 0 {
					t.Errorf("%d pairs missing, %d unexpected (got %d distinct, want %d)",
						missing, extra, len(sink.ms), len(want))
				}
				if n := int64(sink.ms.total()); n != out.res.Outputs {
					t.Errorf("sink received %d pairs, master summary says %d", n, out.res.Outputs)
				}
			}})
	}
	return rows
}

// memSink is an in-process pair sink that folds every pair into a
// fingerprint multiset; the join workers of every slave call it at once.
type memSink struct {
	mu sync.Mutex
	ms pairMultiset[pairFP]
}

func (s *memSink) Emit(_ int32, pairs []join.Pair) []join.Pair {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range pairs {
		s.ms[fpOf(wire.OutPair{Probe: p.Probe, Stored: p.Stored})]++
	}
	return pairs
}

// blockSpanMs is the widest timestamp span of TuplesPerBlock consecutive
// tuples of one key and stream: the most a window block can hold, since a
// fine-tuning bucket holds at least one key whole.
func blockSpanMs(work []tuple.Tuple) int32 {
	type ks struct {
		key    int32
		stream tuple.StreamID
	}
	runs := make(map[ks][]int32)
	for _, t := range work {
		k := ks{t.Key, t.Stream}
		runs[k] = append(runs[k], t.TS)
	}
	span := int32(0)
	for _, ts := range runs {
		for i := 0; i+tuple.TuplesPerBlock-1 < len(ts); i++ {
			span = max(span, ts[i+tuple.TuplesPerBlock-1]-ts[i])
		}
	}
	return span
}

// checkPairGaps fails the row when a slave emitted a pair wider than the
// window allows, given the workload's block span.
func checkPairGaps(t *testing.T, cfg Config, out *clusterOut, work []tuple.Tuple) {
	t.Helper()
	bound := cfg.WindowMs + 2*cfg.DistEpochMs + blockSpanMs(work)
	for id, g := range out.gap {
		if g > bound {
			t.Errorf("slave %d emitted a pair %d ms apart, beyond W + 2·t_d + block span = %d ms: its expiry clock lags the tuples'",
				id, g, bound)
		}
	}
	t.Logf("widest pair per slave %v (bound %d ms)", out.gap, bound)
}
