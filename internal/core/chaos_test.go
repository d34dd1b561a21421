package core

import (
	"sync"
	"testing"
	"time"

	"streamjoin/internal/faultnet"
	"streamjoin/internal/tuple"
)

// TestChaosEquivalence is the chaos-hardening acceptance test: a real-TCP
// W=4 elastic cluster driven through the faultnet transport must keep the
// join-pair multiset correct — exactly equal to the brute-force ground truth
// when the fault is recoverable, and an exactly-accounted subset when state
// is genuinely lost — under each injected fault kind:
//
//   - latency-jitter:     seeded latency on every connection, both directions;
//   - replication-reset:  the buddy-replication stream is reset mid-run and
//     must recover via a full re-snapshot;
//   - mesh-partition:     a joiner's mesh link to one founder is a one-way
//     blackhole; affected moves complete degraded (counted in
//     Result.MovesDegraded) and nobody is evicted;
//   - stalled-sink:       the downstream pair consumer connection freezes
//     for 1.5s inside the write deadline; output completes with no loss.
//
// The workload, cluster shape, and ground-truth machinery are shared with
// TestElasticEquivalence.
func TestChaosEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	work := elasticWorkload(400, 8_000, 20, 48)
	expected := bruteForcePairs(work)
	if len(expected) < 1_000 {
		t.Fatalf("vacuous workload: only %d expected pairs", len(expected))
	}

	// runCluster starts the master plus cfg.MinSlaves initial slaves (staggered
	// so identities are assigned in slot order: slave i joins at i*400ms) and
	// any extra joiners, waits for completion, and returns the run result.
	type slaveSpec struct {
		cfg   Config
		opts  JoinOptions
		delay time.Duration
	}
	runCluster := func(t *testing.T, masterCfg Config, slaves []slaveSpec) *Result {
		t.Helper()
		addrs := freePorts(t, 2)
		ctl, res := addrs[0], addrs[1]
		var wg sync.WaitGroup
		slaveErr := make(chan error, len(slaves))
		for _, sp := range slaves {
			wg.Add(1)
			go func(sp slaveSpec) {
				defer wg.Done()
				if sp.delay > 0 {
					time.Sleep(sp.delay)
				}
				if err := ServeSlave(sp.cfg, ctl, res, sp.opts); err != nil {
					slaveErr <- err
				}
			}(sp)
		}
		result, err := serveMaster(masterCfg, ctl, res, t.Logf,
			&listIngestor{tuples: append([]tuple.Tuple(nil), work...)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(slaveErr)
		for err := range slaveErr {
			t.Error(err)
		}
		return result
	}

	t.Run("latency-jitter", func(t *testing.T) {
		// Seeded 10-20ms latency on every write of every connection the
		// cluster makes — control, heartbeat, mesh, replication, collector,
		// and sink paths all slow down together. Nothing may be lost, nobody
		// may be evicted: latency is not death.
		cfg := elasticTestConfig()
		cfg.MinSlaves = 3
		sink := newFPSink(t, false)
		cfg.SinkAddr = sink.addr()
		dialRule := &faultnet.Rule{Latency: 10 * time.Millisecond, Jitter: 10 * time.Millisecond}
		acceptRule := &faultnet.Rule{Listen: true, Latency: 10 * time.Millisecond, Jitter: 10 * time.Millisecond}
		cfg.Transport = faultnet.New(7, dialRule, acceptRule)

		slaves := make([]slaveSpec, 3)
		for i := range slaves {
			slaves[i] = slaveSpec{cfg: cfg, delay: time.Duration(i) * 400 * time.Millisecond}
		}
		result := runCluster(t, cfg, slaves)

		if result.Evictions != 0 || result.Leaves != 0 {
			t.Errorf("latency caused departures: %d evictions, %d leaves", result.Evictions, result.Leaves)
		}
		if result.MovesDegraded != 0 {
			t.Errorf("latency degraded %d moves", result.MovesDegraded)
		}
		diffMultisets(t, "latency run vs brute force", sink.finish(t), expected)
		if s := sink.tally.SeqDups(); s != 0 {
			t.Errorf("collector flagged %d replayed batches", s)
		}
		if dialRule.Fired() == 0 || acceptRule.Fired() == 0 {
			t.Errorf("latency rules never fired (dial %d, accept %d)", dialRule.Fired(), acceptRule.Fired())
		}
	})

	t.Run("replication-reset", func(t *testing.T) {
		// Buddy replication on; the first slave's replication stream to its
		// buddy is reset after 4KB. The replicator must redial and recover
		// with a full snapshot (needReset), invisibly to the output. Slave 0
		// never dials another founder's mesh address for state movement
		// (later joiners dial earlier ones), so a reset rule keyed on the
		// buddies' pinned mesh addresses hits exactly the replication stream.
		cfg := elasticTestConfig()
		cfg.MinSlaves = 3
		cfg.Replicate = true
		sink := newFPSink(t, false)
		cfg.SinkAddr = sink.addr()

		mesh := freePorts(t, 2) // pinned mesh listeners of slaves 1 and 2
		r1 := &faultnet.Rule{Addr: mesh[0], ResetAfter: 4 << 10, Times: 1}
		r2 := &faultnet.Rule{Addr: mesh[1], ResetAfter: 4 << 10, Times: 1}
		cfg0 := cfg
		cfg0.Transport = faultnet.New(11, r1, r2)

		result := runCluster(t, cfg, []slaveSpec{
			{cfg: cfg0},
			{cfg: cfg, opts: JoinOptions{MeshListen: mesh[0]}, delay: 400 * time.Millisecond},
			{cfg: cfg, opts: JoinOptions{MeshListen: mesh[1]}, delay: 800 * time.Millisecond},
		})

		if result.Evictions != 0 {
			t.Errorf("replication reset caused %d evictions", result.Evictions)
		}
		if result.MovesDegraded != 0 {
			t.Errorf("replication reset degraded %d moves", result.MovesDegraded)
		}
		if fired := r1.Fired() + r2.Fired(); fired != 1 {
			t.Errorf("replication stream resets fired = %d, want exactly 1 (hits %d/%d)",
				fired, r1.Hits(), r2.Hits())
		}
		diffMultisets(t, "replication-reset run vs brute force", sink.finish(t), expected)
		if s := sink.tally.SeqDups(); s != 0 {
			t.Errorf("collector flagged %d replayed batches", s)
		}
	})

	t.Run("mesh-partition", func(t *testing.T) {
		// 2 → 3 scale-out where the joiner's mesh link to one founder is a
		// one-way blackhole: the joiner's mesh handshake is swallowed and its
		// reads on that link starve. Moves across the partition must complete
		// degraded — empty install, counted in MovesDegraded — within the
		// wire-deadline budget; neither side may be evicted, and no pair may
		// be invented or duplicated.
		cfg := elasticTestConfig()
		cfg.MinSlaves = 2
		cfg.WireDeadlineMs = 1_500 // meshRd 4s, ctlRd 5.5s: stalls stay under eviction
		sink := newFPSink(t, false)
		cfg.SinkAddr = sink.addr()

		meshA := freePorts(t, 1)[0] // founder slave 0's pinned mesh address
		hole := &faultnet.Rule{Addr: meshA, Blackhole: true}
		joinerCfg := cfg
		joinerCfg.Transport = faultnet.New(13, hole)

		result := runCluster(t, cfg, []slaveSpec{
			{cfg: cfg, opts: JoinOptions{MeshListen: meshA}},
			{cfg: cfg, delay: 400 * time.Millisecond},
			{cfg: joinerCfg, delay: 3 * time.Second},
		})

		if result.Joins != 3 {
			t.Errorf("joins = %d, want 3", result.Joins)
		}
		if result.Evictions != 0 || result.Leaves != 0 {
			t.Errorf("partition caused departures: %d evictions, %d leaves — a stalled link must degrade moves, not kill slaves",
				result.Evictions, result.Leaves)
		}
		if result.GroupsRebalanced == 0 {
			t.Error("no groups rebalanced toward the joiner — the scale-out was vacuous")
		}
		if result.MovesDegraded == 0 {
			t.Error("no moves recorded as degraded — the partition's state loss went unaccounted")
		}
		if hole.Fired() == 0 {
			t.Error("blackhole rule never fired")
		}

		// Exactly-accounted loss: nothing invented, and the only pairs that
		// may be missing are those touching state lost to degraded moves.
		ms := sink.finish(t)
		for fp, c := range ms {
			if c > expected[fp] {
				t.Fatalf("pair %+v delivered %d times, expected at most %d", fp, c, expected[fp])
			}
		}
		if s := sink.tally.SeqDups(); s != 0 {
			t.Errorf("collector flagged %d replayed batches", s)
		}
		var got, want int64
		for _, c := range ms {
			got += int64(c)
		}
		for _, c := range expected {
			want += int64(c)
		}
		t.Logf("mesh-partition: %d of %d pairs delivered, %d moves degraded",
			got, want, result.MovesDegraded)
	})

	t.Run("stalled-sink", func(t *testing.T) {
		// Every slave's downstream sink connection freezes for 1.5s once 8KB
		// of pairs have shipped — inside the 3s write deadline, so the
		// connection must survive and deliver everything, exactly once. The
		// per-epoch delivery barrier rides through the stall (Emit
		// backpressure, not drops).
		cfg := elasticTestConfig()
		cfg.MinSlaves = 3
		cfg.WireDeadlineMs = 3_000
		sink := newFPSink(t, false)
		cfg.SinkAddr = sink.addr()
		stall := &faultnet.Rule{
			Addr:            sink.addr(),
			WriteStallAfter: 8 << 10,
			Stall:           1500 * time.Millisecond,
		}
		scfg := cfg
		scfg.Transport = faultnet.New(17, stall)

		slaves := make([]slaveSpec, 3)
		for i := range slaves {
			slaves[i] = slaveSpec{cfg: scfg, delay: time.Duration(i) * 400 * time.Millisecond}
		}
		result := runCluster(t, cfg, slaves)

		if result.Evictions != 0 {
			t.Errorf("stalled sink caused %d evictions", result.Evictions)
		}
		if stall.Fired() == 0 {
			t.Error("stall rule never fired — the sink load never crossed the trigger")
		}
		diffMultisets(t, "stalled-sink run vs brute force", sink.finish(t), expected)
		if s := sink.tally.SeqDups(); s != 0 {
			t.Errorf("collector flagged %d replayed batches", s)
		}
	})
}
