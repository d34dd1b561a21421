package core

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"streamjoin/internal/collect"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// The TCP cluster suites. Every scenario is a row of clusterTable
// (cluster_table_test.go): a master on open loopback listeners, slaves that
// dial it at given offsets, an optional downstream pair sink, and a check.
// runCluster is the one driver, bruteForcePairs the one oracle and
// pairMultiset.diff the one comparison.
//
// The rows mostly sleep, so they run side by side: every selected suite sets
// its rows up in go test's sequential phase, and the first suite to reach
// the parallel phase starts all of them at once; -parallel only bounds how
// many suites assert at a time. A row that asserts wall-clock tightness
// opts out (clusterRow.serial) and runs alone, in the sequential phase.

func TestChaosEquivalence(t *testing.T)               { runSuite(t) }
func TestElasticEquivalence(t *testing.T)             { runSuite(t) }
func TestCrashRecoveryEquivalence(t *testing.T)       { runSuite(t) }
func TestIncrementalTransferEquivalence(t *testing.T) { runSuite(t) }
func TestFoundersLateShareMasterClock(t *testing.T)   { runSuite(t) }
func TestJoinerOnMasterGrid(t *testing.T)             { runSuite(t) }
func TestTCPClusterEndToEnd(t *testing.T)             { runSuite(t) }
func TestFullRosterFormation(t *testing.T)            { runSuite(t) }
func TestTCPClusterSocketSink(t *testing.T)           { runSuite(t) }

// clusterRow is one TCP cluster scenario, asserted as subtest suite/name.
type clusterRow struct {
	suite, name string
	// serial, when set, says why the row must not share the machine with
	// the other rows.
	serial string
	cfg    Config        // the master's
	work   []tuple.Tuple // replayed through the master's ingestor; nil runs the synthetic sources
	sink   sinkMode
	slaves []slaveSpec
	// aim, when set, receives the sink's address and the pinned slaves' mesh
	// addresses (by slave, "" where unpinned) before any node starts, so the
	// row's fault rules can name them.
	aim   func(sink string, mesh []string)
	check func(t *testing.T, out *clusterOut)
}

type sinkMode int

const (
	noSink       sinkMode = iota
	strictSink            // a consumer's decode error fails the row
	tolerantSink          // a killed slave tears its sink connection mid-frame
)

// slaveSpec is one slave of a row, dialing at offset at from the master's
// start. A slave with killAt or opts.failAt set must fail and be evicted;
// one with leaveAt set must leave gracefully; any other must neither fail
// nor leave.
type slaveSpec struct {
	cfg     Config
	opts    JoinOptions
	at      time.Duration
	pin     bool          // its mesh listener is opened up front, for aim
	killAt  time.Duration // when > 0, every connection is severed at this offset
	leaveAt time.Duration // when > 0, a graceful leave is requested at this offset
	// serve, when set, replaces ServeSlave(cfg, ctl, res, opts).
	serve func(cfg Config, ctl, res string) error
}

// clusterOut is what one row's run left behind.
type clusterOut struct {
	res       *Result
	err       error   // the master's
	slaveErrs []error // of the slaves that failed
	sinkErrs  []error // of a strict sink's consumers
	pairs     pairMultiset[pairFP]
	tally     *collect.Tally
	gap       map[int32]int32 // per producing slave, the widest |TS1−TS2| delivered
	log       []string        // the master's membership log
	pulls     []int32         // the master clock at each Pull of the replayed list
	// Milliseconds since the master's start call, or -1 for never: when
	// the cluster formed, when a slave was first declared dead, and when
	// the kill fired.
	formedMs, evictedMs, killedMs int32
}

// clusterRun is a row set up to run: its listeners are open.
type clusterRun struct {
	row          clusterRow
	cfg          Config
	slaves       []slaveSpec
	ctlLn, resLn net.Listener
	sink         *fpSink
	done         chan struct{}
	out          clusterOut
}

// setupCluster opens a row's sink, master listeners and pinned mesh
// listeners, and aims its fault rules.
func setupCluster(t *testing.T, row clusterRow) *clusterRun {
	t.Helper()
	r := &clusterRun{row: row, cfg: row.cfg, slaves: slices.Clone(row.slaves), done: make(chan struct{})}
	var err error
	if row.sink != noSink {
		if r.sink, err = newFPSink(row.sink == tolerantSink); err != nil {
			t.Fatal(err)
		}
		r.cfg.SinkAddr = r.sink.addr()
	}
	// Listening validates the config, so the one served is the one checked.
	if r.ctlLn, r.resLn, err = listenMaster(&r.cfg, "127.0.0.1:0", "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	mesh := make([]string, len(r.slaves))
	for i := range r.slaves {
		sp := &r.slaves[i]
		sp.cfg.SinkAddr = r.cfg.SinkAddr
		if sp.pin {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			sp.opts.meshLn, mesh[i] = ln, ln.Addr().String()
		}
	}
	if row.aim != nil {
		row.aim(r.cfg.SinkAddr, mesh)
	}
	return r
}

// runCluster serves the master, starts every slave at its offset, and fills
// r.out once the master and every slave have returned.
func (r *clusterRun) runCluster() {
	defer close(r.done)
	out := &r.out
	var mu sync.Mutex // guards everything below until the run is over
	var lines []string
	formedMs, evictedMs, killedMs := int32(-1), int32(-1), int32(-1)
	var slaveErrs []error

	defer func() {
		mu.Lock()
		defer mu.Unlock()
		out.log = slices.Clone(lines)
		out.formedMs, out.evictedMs, out.killedMs = formedMs, evictedMs, killedMs
		out.slaveErrs = slices.Clone(slaveErrs)
	}()
	t0 := time.Now()
	sinceMs := func() int32 { return int32(time.Since(t0) / time.Millisecond) }
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, line)
		if formedMs < 0 && strings.Contains(line, "cluster formed") {
			formedMs = sinceMs()
		}
		if evictedMs < 0 && strings.Contains(line, "dead") {
			evictedMs = sinceMs()
		}
	}
	ctl, res := r.ctlLn.Addr().String(), r.resLn.Addr().String()
	var wg sync.WaitGroup
	for _, sp := range r.slaves {
		if sp.killAt > 0 {
			kill := make(chan struct{})
			sp.opts.kill = kill
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(sp.killAt - time.Since(t0))
				mu.Lock()
				killedMs = sinceMs()
				mu.Unlock()
				close(kill)
			}()
		}
		if sp.leaveAt > 0 {
			leave := make(chan struct{})
			sp.opts.Leave = leave
			time.AfterFunc(sp.leaveAt-time.Since(t0), func() { close(leave) })
		}
		serve := sp.serve
		if serve == nil {
			serve = func(cfg Config, ctl, res string) error { return ServeSlave(cfg, ctl, res, sp.opts) }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(sp.at - time.Since(t0))
			if err := serve(sp.cfg, ctl, res); err != nil {
				mu.Lock()
				slaveErrs = append(slaveErrs, err)
				mu.Unlock()
			}
		}()
	}
	var ing Ingestor
	var list *listIngestor
	if r.row.work != nil {
		list = &listIngestor{tuples: slices.Clone(r.row.work)}
		ing = list
	}
	if out.res, out.err = serveMaster(r.cfg, r.ctlLn, r.resLn, logf, ing); out.err != nil {
		return
	}
	wg.Wait()
	if list != nil {
		out.pulls = list.pulls
	}
	if r.sink != nil {
		out.sinkErrs = r.sink.finish()
		out.pairs, out.tally, out.gap = r.sink.ms, r.sink.tally, r.sink.gap
	}
}

// assert runs the checks every row shares, then the row's own.
func (r *clusterRun) assert(t *testing.T) {
	out := &r.out
	for _, line := range out.log {
		t.Log(line)
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	crashes, leaves := 0, 0
	for _, sp := range r.row.slaves {
		if sp.killAt > 0 || sp.opts.failAt > 0 {
			crashes++
		}
		if sp.leaveAt > 0 {
			leaves++
		}
	}
	if len(out.slaveErrs) != crashes {
		t.Errorf("%d slaves failed, want %d: %v", len(out.slaveErrs), crashes, out.slaveErrs)
	} else {
		for _, err := range out.slaveErrs {
			t.Logf("slave exit (expected for the crashed one): %v", err)
		}
	}
	if out.res.Evictions != crashes || out.res.Leaves != leaves {
		t.Errorf("%d evictions, %d leaves; want %d and %d", out.res.Evictions, out.res.Leaves, crashes, leaves)
	}
	for _, err := range out.sinkErrs {
		t.Errorf("sink consumer: %v", err)
	}
	r.row.check(t, out)
}

// pendingRuns holds the rows that selected suites set up in the sequential
// phase and nobody has started yet.
var pendingRuns struct {
	sync.Mutex
	runs []*clusterRun
}

// runSuite asserts the calling suite's rows of clusterTable, each in its own
// subtest. Serial rows run there and then; the rest are set up now and run
// in the parallel phase, every suite's at once.
func runSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP clusters")
	}
	var runs []*clusterRun
	for _, row := range clusterTable() {
		switch {
		case row.suite != t.Name():
		case row.serial != "":
			t.Run(row.name, func(t *testing.T) {
				r := setupCluster(t, row)
				r.runCluster()
				r.assert(t)
			})
		default:
			runs = append(runs, setupCluster(t, row))
		}
	}
	if len(runs) == 0 {
		return
	}
	pendingRuns.Lock()
	pendingRuns.runs = append(pendingRuns.runs, runs...)
	pendingRuns.Unlock()

	t.Parallel()
	pendingRuns.Lock()
	for _, r := range pendingRuns.runs {
		go r.runCluster()
	}
	pendingRuns.runs = nil
	pendingRuns.Unlock()
	for _, r := range runs {
		t.Run(r.row.name, func(t *testing.T) {
			<-r.done
			r.assert(t)
		})
	}
	for _, r := range runs {
		<-r.done // a row -run filtered out still finishes within its suite
	}
}

// listIngestor replays a fixed, timestamp-sorted tuple list: Pull returns
// (and consumes) every tuple with TS < uptoMs, and records uptoMs. It makes
// a wall-clock TCP run deterministic in *content* — the exact same tuples
// arrive no matter how the epochs land — so two runs over the same list
// must produce the same join-pair multiset. Pull runs on the master
// goroutine only.
type listIngestor struct {
	tuples []tuple.Tuple
	pulls  []int32
}

func (in *listIngestor) Pull(uptoMs int32) []tuple.Tuple {
	in.pulls = append(in.pulls, uptoMs)
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

// pairMultiset counts occurrences of each pair (duplicates matter: a key can
// match the same stored tuple through several probe tuples with identical
// fields). A/B comparisons key it by groupPair, the full materialized pair;
// oracle comparisons by pairFP, the order-normalized fingerprint.
type pairMultiset[K comparable] map[K]int

func (ms pairMultiset[K]) total() int {
	n := 0
	for _, c := range ms {
		n += c
	}
	return n
}

// diff counts the occurrences want holds and ms lacks, and the reverse.
func (ms pairMultiset[K]) diff(want pairMultiset[K]) (missing, extra int) {
	for k, c := range want {
		missing += max(c-ms[k], 0)
	}
	for k, c := range ms {
		extra += max(c-want[k], 0)
	}
	return missing, extra
}

// groupPair is one materialized pair of one partition-group.
type groupPair struct {
	group int32
	pair  join.Pair
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
func bruteForcePairs(work []tuple.Tuple) pairMultiset[pairFP] {
	s1 := make(map[int32][]int32)
	s2 := make(map[int32][]int32)
	for _, t := range work {
		if t.Stream == tuple.S1 {
			s1[t.Key] = append(s1[t.Key], t.TS)
		} else {
			s2[t.Key] = append(s2[t.Key], t.TS)
		}
	}
	exp := make(pairMultiset[pairFP])
	for k, l1 := range s1 {
		for _, t1 := range l1 {
			for _, t2 := range s2[k] {
				exp[pairFP{Key: k, TS1: t1, TS2: t2}]++
			}
		}
	}
	return exp
}

// oracleDiff is out.pairs.diff(want), for a want large enough to mean
// something.
func oracleDiff(t *testing.T, out *clusterOut, want pairMultiset[pairFP]) (missing, extra int) {
	t.Helper()
	if len(want) < 1_000 {
		t.Fatalf("vacuous workload: only %d expected pairs", len(want))
	}
	return out.pairs.diff(want)
}

// sameAsOracle fails the row unless it delivered want, pair for pair, with
// no batch replayed to the sink.
func sameAsOracle(t *testing.T, out *clusterOut, want pairMultiset[pairFP]) {
	t.Helper()
	if missing, extra := oracleDiff(t, out, want); missing > 0 || extra > 0 {
		t.Errorf("%d pairs missing, %d unexpected (got %d distinct, want %d)",
			missing, extra, len(out.pairs), len(want))
	}
	noReplays(t, out)
}

// noneInvented fails the row if it delivered a pair the oracle lacks, or
// more often than the oracle has it, and returns how many oracle pairs are
// missing.
func noneInvented(t *testing.T, out *clusterOut, want pairMultiset[pairFP]) (missing int) {
	t.Helper()
	missing, extra := oracleDiff(t, out, want)
	if extra > 0 {
		t.Fatalf("%d pairs invented or duplicated", extra)
	}
	return missing
}

// healedPresent fails the row unless it delivered every oracle pair whose
// tuples both arrived at or after healedMs, when the cluster had healed.
func healedPresent(t *testing.T, out *clusterOut, want pairMultiset[pairFP], healedMs int32) {
	t.Helper()
	late, missing := 0, 0
	for fp, c := range want {
		if fp.TS1 < healedMs || fp.TS2 < healedMs {
			continue
		}
		late += c
		missing += max(c-out.pairs[fp], 0)
	}
	if late < 10 {
		t.Fatalf("vacuous late-phase check: only %d pairs expected after %dms", late, healedMs)
	}
	if missing > 0 {
		t.Errorf("%d of %d post-recovery pairs missing — the healed cluster is not joining correctly", missing, late)
	}
}

// noReplays fails the row if the collector saw a batch's emission sequence
// regress: output that a deduplicating consumer would have had to absorb.
func noReplays(t *testing.T, out *clusterOut) {
	t.Helper()
	if s := out.tally.SeqDups(); s != 0 {
		t.Errorf("collector flagged %d replayed batches", s)
	}
}

// fpSink runs a downstream pair consumer on a loopback listener, folding
// every received pair into a fingerprint multiset. Decode errors are
// reported unless tolerate is set.
type fpSink struct {
	ln    net.Listener
	ms    pairMultiset[pairFP]
	gap   map[int32]int32
	tally *collect.Tally
	mu    sync.Mutex
	errs  []error
	wg    sync.WaitGroup
}

func newFPSink(tolerate bool) (*fpSink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &fpSink{ln: ln, ms: make(pairMultiset[pairFP]), gap: make(map[int32]int32)}
	// onBatch runs serially under the tally lock, so the maps need none.
	s.tally = collect.New(func(pb *wire.PairBatch) {
		for _, p := range pb.Pairs {
			fp := fpOf(p)
			s.ms[fp]++
			s.gap[pb.Slave] = max(s.gap[pb.Slave], fp.TS1-fp.TS2, fp.TS2-fp.TS1)
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
			go func() {
				defer s.wg.Done()
				defer c.Close()
				if err := s.tally.Consume(c); err != nil && !tolerate {
					s.mu.Lock()
					s.errs = append(s.errs, err)
					s.mu.Unlock()
				}
			}()
		}
	}()
	return s, nil
}

// finish closes the listener, waits for every consumer, and returns their
// errors.
func (s *fpSink) finish() []error {
	s.ln.Close()
	s.wg.Wait()
	return s.errs
}

func (s *fpSink) addr() string { return s.ln.Addr().String() }
