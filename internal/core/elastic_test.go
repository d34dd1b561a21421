package core

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"streamjoin/internal/collect"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// listIngestor replays a fixed, timestamp-sorted tuple list: Pull returns
// (and consumes) every tuple with TS < uptoMs. It makes a wall-clock TCP run
// deterministic in *content* — the exact same tuples arrive no matter how
// the epochs land — so two runs over the same list must produce the same
// join-pair multiset.
type listIngestor struct {
	tuples []tuple.Tuple
}

func (in *listIngestor) Pull(uptoMs int32) []tuple.Tuple {
	n := 0
	for n < len(in.tuples) && in.tuples[n].TS < uptoMs {
		n++
	}
	out := in.tuples[:n:n]
	in.tuples = in.tuples[n:]
	return out
}

// elasticWorkload builds the finite two-stream workload: one S1/S2 tuple
// pair per step, keys cycling so every key keeps matching across the whole
// interval. Every (stream, key, TS) combination is unique, so the expected
// pair multiset is a set and subset checks are exact.
func elasticWorkload(startMs, endMs, stepMs, keys int32) []tuple.Tuple {
	var out []tuple.Tuple
	i := int32(0)
	for t := startMs; t < endMs; t += stepMs {
		k := i % keys
		out = append(out, tuple.Tuple{Stream: tuple.S1, Key: k, TS: t})
		out = append(out, tuple.Tuple{Stream: tuple.S2, Key: k, TS: t + 7})
		i++
	}
	return out
}

// pairFP is the order-normalized fingerprint of one emitted join pair.
type pairFP struct {
	Key, TS1, TS2 int32
}

func fpOf(p wire.OutPair) pairFP {
	if p.Probe.Stream == tuple.S1 {
		return pairFP{Key: p.Probe.Key, TS1: p.Probe.TS, TS2: p.Stored.TS}
	}
	return pairFP{Key: p.Probe.Key, TS1: p.Stored.TS, TS2: p.Probe.TS}
}

// bruteForcePairs computes the ground-truth result: with the window longer
// than the whole run, every S1 tuple joins every S2 tuple of the same key.
func bruteForcePairs(work []tuple.Tuple) map[pairFP]int {
	s1 := make(map[int32][]int32)
	s2 := make(map[int32][]int32)
	for _, t := range work {
		if t.Stream == tuple.S1 {
			s1[t.Key] = append(s1[t.Key], t.TS)
		} else {
			s2[t.Key] = append(s2[t.Key], t.TS)
		}
	}
	exp := make(map[pairFP]int)
	for k, l1 := range s1 {
		for _, t1 := range l1 {
			for _, t2 := range s2[k] {
				exp[pairFP{Key: k, TS1: t1, TS2: t2}]++
			}
		}
	}
	return exp
}

// fpSink runs a downstream pair consumer on ln, folding every received pair
// into a fingerprint multiset. Decode errors are fatal unless tolerate is
// set (a killed slave tears its sink connection mid-frame).
type fpSink struct {
	ln    net.Listener
	ms    map[pairFP]int
	gap   map[int32]int32 // per producing slave, the widest |TS1−TS2| delivered
	tally *collect.Tally
	errs  chan error
	wg    sync.WaitGroup
}

func newFPSink(t *testing.T, tolerate bool) *fpSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &fpSink{ln: ln, ms: make(map[pairFP]int), gap: make(map[int32]int32), errs: make(chan error, 16)}
	// onBatch runs serially under the tally lock, so the maps need none.
	s.tally = collect.New(func(pb *wire.PairBatch) {
		for _, p := range pb.Pairs {
			fp := fpOf(p)
			s.ms[fp]++
			if g := max(fp.TS1-fp.TS2, fp.TS2-fp.TS1); g > s.gap[pb.Slave] {
				s.gap[pb.Slave] = g
			}
		}
	})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return // listener closed: run over
			}
			s.wg.Add(1)
			go func(c net.Conn) {
				defer s.wg.Done()
				defer c.Close()
				if err := s.tally.Consume(c); err != nil && !tolerate {
					s.errs <- err
				}
			}(c)
		}
	}()
	return s
}

// finish closes the listener, waits for every consumer, and returns the
// fingerprint multiset.
func (s *fpSink) finish(t *testing.T) map[pairFP]int {
	t.Helper()
	s.ln.Close()
	s.wg.Wait()
	close(s.errs)
	for err := range s.errs {
		t.Errorf("sink consumer: %v", err)
	}
	return s.ms
}

func (s *fpSink) addr() string { return s.ln.Addr().String() }

// elasticTestConfig is the shared cluster shape of the equivalence runs:
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

// diffMultisets reports (as test errors) where got differs from want.
func diffMultisets(t *testing.T, label string, got, want map[pairFP]int) {
	t.Helper()
	missing, extra := 0, 0
	for fp, c := range want {
		if got[fp] < c {
			missing += c - got[fp]
		}
	}
	for fp, c := range got {
		if want[fp] < c {
			extra += c - want[fp]
		}
	}
	if missing > 0 || extra > 0 {
		t.Errorf("%s: %d pairs missing, %d unexpected (got %d, want %d)",
			label, missing, extra, len(got), len(want))
	}
}

// TestElasticEquivalence is the tentpole acceptance test: a cluster that
// scales out (2→3, a slave joins mid-run) and one that scales in by crash
// (3→2, a slave is killed mid-run) both keep the join correct over real TCP
// with W=4 join workers.
//
// The workload is a finite tuple list replayed through the master's
// ingestor seam, and the window outlives the run, so the ground truth is
// the brute-force S1×S2 join of the list. The scale-out run must produce
// exactly that multiset — byte-for-byte what a static cluster produces.
// The killed slave takes its window state down with it, so the scale-in run
// must produce a subset, must still contain every pair whose tuples both
// arrived after the cluster healed, and must run to completion with the
// crash detected and evicted.
func TestElasticEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	work := elasticWorkload(400, 8_000, 20, 48)
	expected := bruteForcePairs(work)
	if len(expected) < 1_000 {
		t.Fatalf("vacuous workload: only %d expected pairs", len(expected))
	}

	t.Run("static-baseline", func(t *testing.T) {
		// A two-slave cluster nobody joins late or leaves, through the
		// ServeSlaveTCP adapter, over the same list: establishes that the
		// ground truth is what the system actually computes, so the elastic
		// comparisons below compare against a meaningful reference.
		cfg := elasticTestConfig()
		cfg.Slaves = 2
		sink := newFPSink(t, false)
		cfg.SinkAddr = sink.addr()

		addrs := freePorts(t, 4)
		ctl, res, mesh := addrs[0], addrs[1], addrs[2:4]
		var wg sync.WaitGroup
		slaveErr := make(chan error, cfg.Slaves)
		for i := 0; i < cfg.Slaves; i++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if err := ServeSlaveTCP(cfg, id, ctl, res, mesh); err != nil {
					slaveErr <- fmt.Errorf("slave %d: %w", id, err)
				}
			}(i)
		}
		result, err := serveMaster(cfg, ctl, res, t.Logf, &listIngestor{tuples: append([]tuple.Tuple(nil), work...)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(slaveErr)
		for err := range slaveErr {
			t.Error(err)
		}
		diffMultisets(t, "static baseline vs brute force", sink.finish(t), expected)
		if result.Outputs == 0 {
			t.Fatal("baseline produced no outputs")
		}
	})

	t.Run("scale-out", func(t *testing.T) {
		// 2 → 3: the cluster forms with two slaves, a third joins ~3s in and
		// receives a rebalance. The pair multiset must equal the brute-force
		// join exactly — elasticity must not lose, duplicate, or invent pairs.
		cfg := elasticTestConfig()
		cfg.MinSlaves = 2
		sink := newFPSink(t, false)
		cfg.SinkAddr = sink.addr()

		addrs := freePorts(t, 2)
		ctl, res := addrs[0], addrs[1]
		var wg sync.WaitGroup
		slaveErr := make(chan error, cfg.Slaves)
		startSlave := func(delay time.Duration) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(delay)
				if err := ServeSlave(cfg, ctl, res, JoinOptions{}); err != nil {
					slaveErr <- err
				}
			}()
		}
		startSlave(0)
		startSlave(0)
		startSlave(3 * time.Second)

		result, err := serveMaster(cfg, ctl, res, t.Logf,
			&listIngestor{tuples: append([]tuple.Tuple(nil), work...)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(slaveErr)
		for err := range slaveErr {
			t.Error(err)
		}

		if result.Joins != 3 {
			t.Errorf("joins = %d, want 3", result.Joins)
		}
		if result.Evictions != 0 || result.Leaves != 0 {
			t.Errorf("unexpected departures: %d evictions, %d leaves", result.Evictions, result.Leaves)
		}
		if result.GroupsRebalanced == 0 {
			t.Error("no groups rebalanced toward the joiner — the scale-out was vacuous")
		}
		diffMultisets(t, "scale-out vs brute force", sink.finish(t), expected)
		if s := sink.tally.SeqDups(); s != 0 {
			t.Errorf("collector flagged %d replayed batches", s)
		}
		t.Logf("scale-out: %d pairs, %d groups rebalanced, %dms cumulative stall",
			sink.tally.Pairs(), result.GroupsRebalanced, result.RebalanceStallMs)
	})

	// 3 → 2: the cluster forms with three slaves; one is killed ~4s in
	// (every connection severed at once). The master must detect the crash
	// within the heartbeat budget, re-adopt the lost groups, and finish the
	// run: the result is a subset of the ground truth (the dead slave's
	// windows are gone) that still contains every pair formed entirely after
	// the cluster healed. A full-roster cluster (MinSlaves 0: every slot is
	// a founder, nobody can join late) recovers exactly the same way — a
	// crashed slave is evicted, never fatal.
	crash := func(t *testing.T, minSlaves int) {
		cfg := elasticTestConfig()
		cfg.MinSlaves = minSlaves
		sink := newFPSink(t, true) // the killed slave tears its sink mid-frame
		cfg.SinkAddr = sink.addr()

		var logMu sync.Mutex
		var evictedAt time.Time
		logf := func(format string, args ...any) {
			line := fmt.Sprintf(format, args...)
			logMu.Lock()
			if strings.Contains(line, "dead") && evictedAt.IsZero() {
				evictedAt = time.Now()
			}
			logMu.Unlock()
			t.Logf("%s", line)
		}

		addrs := freePorts(t, 2)
		ctl, res := addrs[0], addrs[1]
		kill := make(chan struct{})
		var wg sync.WaitGroup
		slaveErr := make(chan error, cfg.Slaves)
		for i := 0; i < cfg.Slaves; i++ {
			opts := JoinOptions{}
			if i == 0 {
				opts.kill = kill
			}
			wg.Add(1)
			go func(opts JoinOptions) {
				defer wg.Done()
				slaveErr <- ServeSlave(cfg, ctl, res, opts)
			}(opts)
		}
		var killedAt time.Time
		go func() {
			time.Sleep(4 * time.Second)
			killedAt = time.Now()
			close(kill)
		}()

		result, err := serveMaster(cfg, ctl, res, logf,
			&listIngestor{tuples: append([]tuple.Tuple(nil), work...)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(slaveErr)
		failures := 0
		for err := range slaveErr {
			if err != nil {
				failures++
				t.Logf("slave exit (expected for the killed one): %v", err)
			}
		}
		if failures != 1 {
			t.Errorf("%d slaves failed, want exactly 1 (the killed one)", failures)
		}
		if result.Evictions != 1 {
			t.Errorf("evictions = %d, want 1", result.Evictions)
		}
		if result.GroupsRebalanced == 0 {
			t.Error("no groups re-adopted after the crash")
		}

		// Detection latency: the heartbeat budget is 450ms; the master often
		// notices even sooner through the failed epoch exchange. The bound
		// allows generous scheduler slack on a loaded CI machine — the tight
		// deterministic bounds live in TestHeartbeatFailureDetection.
		logMu.Lock()
		detected := evictedAt
		logMu.Unlock()
		if detected.IsZero() {
			t.Error("no eviction was ever logged")
		} else if lat := detected.Sub(killedAt); lat > time.Duration(cfg.HeartbeatMs)*time.Millisecond*time.Duration(cfg.HeartbeatMisses)+2*time.Second {
			t.Errorf("crash detected %v after the kill, beyond the heartbeat budget", lat)
		} else {
			t.Logf("crash detected %v after the kill", lat)
		}

		ms := sink.finish(t)
		// No invented or duplicated pairs, even through the crash.
		for fp, c := range ms {
			if c > expected[fp] {
				t.Fatalf("pair %+v delivered %d times, expected at most %d", fp, c, expected[fp])
			}
		}
		// Every pair formed entirely after the cluster healed must be there.
		const healedMs = 7_000
		lateWant, lateMissing := 0, 0
		for fp, c := range expected {
			if fp.TS1 < healedMs || fp.TS2 < healedMs {
				continue
			}
			lateWant += c
			if ms[fp] < c {
				lateMissing += c - ms[fp]
			}
		}
		if lateWant < 10 {
			t.Fatalf("vacuous late-phase check: only %d pairs expected after %dms", lateWant, healedMs)
		}
		if lateMissing > 0 {
			t.Errorf("%d of %d post-recovery pairs missing — the healed cluster is not joining correctly",
				lateMissing, lateWant)
		}
		var got int64
		for _, c := range ms {
			got += int64(c)
		}
		t.Logf("scale-in: %d of %d ground-truth pairs survived the crash, %d post-recovery pairs all present",
			got, len(expected), lateWant)
	}
	t.Run("scale-in-crash", func(t *testing.T) { crash(t, 3) })
	t.Run("full-roster-crash", func(t *testing.T) { crash(t, 0) })
}
