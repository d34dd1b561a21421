package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"streamjoin/internal/tuple"
)

// pullLog is a listIngestor that records the master clock of every Pull.
// Pull runs on the master goroutine only, and the log is read after the run.
type pullLog struct {
	listIngestor
	atMs []int32
}

func (p *pullLog) Pull(uptoMs int32) []tuple.Tuple {
	p.atMs = append(p.atMs, uptoMs)
	return p.listIngestor.Pull(uptoMs)
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

// clockRun is one TCP cluster run: its pair sink, the master's pull log,
// and when the cluster formed (ms since the start call, on the test's
// clock).
type clockRun struct {
	result   *Result
	sink     *fpSink
	pulls    *pullLog
	formedMs int32
}

// runClockCluster serves a master over work and starts one slave per entry
// of dials, each dialing that long after the master's start call, with
// that entry's options.
func runClockCluster(t *testing.T, cfg Config, work []tuple.Tuple, dials []time.Duration, opts []JoinOptions) clockRun {
	t.Helper()
	run := clockRun{sink: newFPSink(t, false), pulls: &pullLog{listIngestor: listIngestor{tuples: append([]tuple.Tuple(nil), work...)}}}
	cfg.SinkAddr = run.sink.addr()
	addrs := freePorts(t, 2)
	ctl, res := addrs[0], addrs[1]

	var wg sync.WaitGroup
	slaveErr := make(chan error, len(dials))
	t0 := time.Now()
	for i, d := range dials {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(d - time.Since(t0))
			if err := ServeSlave(cfg, ctl, res, opts[i]); err != nil {
				slaveErr <- fmt.Errorf("slave dialing at %v: %w", d, err)
			}
		}()
	}
	var formed sync.Once
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if strings.Contains(line, "cluster formed") {
			formed.Do(func() { run.formedMs = int32(time.Since(t0) / time.Millisecond) })
		}
		t.Logf("%s", line)
	}
	var err error
	run.result, err = serveMaster(cfg, ctl, res, logf, run.pulls)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(slaveErr)
	for err := range slaveErr {
		t.Error(err)
	}
	run.sink.finish(t)
	return run
}

// checkPairGaps fails the test when a slave emitted a pair wider than the
// window allows, given the workload's block span.
func checkPairGaps(t *testing.T, cfg Config, run clockRun, work []tuple.Tuple) {
	t.Helper()
	bound := cfg.WindowMs + 2*cfg.DistEpochMs + blockSpanMs(work)
	for id, g := range run.sink.gap {
		if g > bound {
			t.Errorf("slave %d emitted a pair %d ms apart, beyond W + 2·t_d + block span = %d ms: its expiry clock lags the tuples'",
				id, g, bound)
		}
	}
	t.Logf("widest pair per slave %v (bound %d ms)", run.sink.gap, bound)
}

// TestFoundersLateShareMasterClock: founders that dial well after the master
// started still run on the master's clock and grid. The grid starts at
// formation, so every epoch's first Pull lands at formation + e·t_d — not an
// epoch early, leaving the tuples of the gap until the founder's Hello to
// wait an extra epoch — and the founders' expiry reads the tuples' time
// base, so no pair outlives the window by more than the block and epoch
// slack.
func TestFoundersLateShareMasterClock(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	cfg := clockTestConfig()
	cfg.Slaves = 2
	cfg.DurationMs = 5_000
	work := elasticWorkload(400, 8_000, 4, 4)
	const late = 1500 * time.Millisecond
	run := runClockCluster(t, cfg, work, []time.Duration{late, late}, make([]JoinOptions, 2))

	if run.formedMs < int32(late/time.Millisecond) {
		t.Fatalf("cluster formed at %d ms, before the founders dialed", run.formedMs)
	}
	checkPairGaps(t, cfg, run, work)
	if len(run.sink.gap) != 2 {
		t.Errorf("pairs from %d slaves, want both", len(run.sink.gap))
	}

	// Both slaves stay active, so the master pulls twice per epoch: the
	// first of each pair opens the epoch. The grid's phase is read off the
	// earliest of them, so one late pull cannot skew the rest.
	td := cfg.DistEpochMs
	pulls := run.pulls.atMs
	if len(pulls) < 2*int(cfg.DurationMs/td) {
		t.Fatalf("%d pulls over a %d ms run", len(pulls), cfg.DurationMs)
	}
	grid := pulls[0]
	for e := 0; 2*e < len(pulls); e++ {
		grid = min(grid, pulls[2*e]-int32(e)*td)
	}
	if d := grid - run.formedMs; d < -2 || d > td/5 {
		t.Errorf("epoch grid starts %d ms after the cluster formed, want at formation", d)
	}
	var off []int32
	for e := 0; 2*e < len(pulls); e++ {
		d := pulls[2*e] - grid - int32(e)*td
		if d > td/5 {
			t.Errorf("epoch %d pulled at %d ms, %d ms after grid start + e·t_d", e, pulls[2*e], d)
		}
		off = append(off, d)
	}
	slices.Sort(off)
	if med := off[len(off)/2]; med > 5 {
		t.Errorf("median pull %d ms after grid start + e·t_d, want within a few ms", med)
	}
}

// TestJoinerOnMasterGrid: a slave admitted mid-run lands on the master's
// grid and clock. Its anchor leaves at the start of its admission epoch, so
// its Hello meets the master's service slot and its wait for each Batch is
// a fraction of the epoch, not the whole of it; its expiry reads the master's
// time, so its pairs stay inside the same bound as the founders'.
func TestJoinerOnMasterGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock TCP test")
	}
	cfg := clockTestConfig()
	cfg.Slaves = 3
	cfg.MinSlaves = 2
	cfg.DurationMs = 5_500
	work := elasticWorkload(400, 7_000, 1, 12)

	var waits []time.Duration // joiner goroutine only; read after the run
	opts := make([]JoinOptions, 3)
	opts[2].batchWait = func(d time.Duration) { waits = append(waits, d) }
	run := runClockCluster(t, cfg, work, []time.Duration{0, 0, 2200 * time.Millisecond}, opts)

	if run.result.Joins != 3 || run.result.GroupsRebalanced == 0 {
		t.Fatalf("joins %d, groups rebalanced %d: the joiner never took part", run.result.Joins, run.result.GroupsRebalanced)
	}
	if len(waits) < 4 {
		t.Fatalf("joiner exchanged %d epochs", len(waits))
	}
	td := time.Duration(cfg.DistEpochMs) * time.Millisecond
	for i, w := range waits {
		if w >= td/5 {
			t.Errorf("joiner waited %v for its batch in exchange %d, want under t_d/5 = %v", w, i, td/5)
		}
	}
	if _, ok := run.sink.gap[2]; !ok {
		t.Fatal("the joiner emitted no pairs")
	}
	checkPairGaps(t, cfg, run, work)
	t.Logf("joiner batch waits %v", waits)
}
