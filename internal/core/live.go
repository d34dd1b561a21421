package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/tuple"
	"streamjoin/internal/workload"
)

// liveIngestCap bounds the tuples the source goroutine may run ahead of the
// master's per-slot Pull: about a second of input at the highest rates the
// benchmark offers, beyond which the sources drop (and count) instead of
// stalling the arrival clock.
const liveIngestCap = 1 << 16

// liveIngestor drains tuples pushed by the source goroutine. Timestamps are
// assigned by the sources from the shared live clock; the master's
// per-partition monotonicity clamp absorbs cross-source interleaving. The
// counters make the ingest edge conserve tuples visibly: at any quiescent
// point offered = pulled + dropped + len(ch).
type liveIngestor struct {
	ch      chan tuple.Tuple
	offered atomic.Int64 // generated by the sources
	dropped atomic.Int64 // discarded because ch was full
	pulled  int64        // handed to the master (its goroutine only)
}

func newLiveIngestor(capacity int) *liveIngestor {
	return &liveIngestor{ch: make(chan tuple.Tuple, capacity)}
}

// Pull implements Ingestor; it never blocks.
func (in *liveIngestor) Pull(int32) []tuple.Tuple {
	var out []tuple.Tuple
	for {
		select {
		case t := <-in.ch:
			out = append(out, t)
		default:
			in.pulled += int64(len(out))
			return out
		}
	}
}

// feed generates both streams in real time, pushing arrivals every few
// milliseconds, honoring the rate schedule, until stop is set.
func (in *liveIngestor) feed(env *engine.LiveEnv, cfg *Config, stop *atomic.Bool) {
	s1, s2 := workload.Pair(workload.Config{
		Rate:   cfg.Rate,
		Skew:   cfg.Skew,
		Domain: cfg.Domain,
		Seed:   cfg.Seed,
	})
	schedule := cfg.RateSchedule
	lastMs := int32(0)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for range tick.C {
		if stop.Load() {
			return
		}
		nowMs := int32(env.Now() / time.Millisecond)
		if nowMs <= lastMs {
			continue
		}
		for len(schedule) > 0 && schedule[0].AtMs <= nowMs {
			s1.SetRate(schedule[0].Rate)
			s2.SetRate(schedule[0].Rate)
			schedule = schedule[1:]
		}
		batch := workload.Merge(s1.Batch(lastMs, nowMs), s2.Batch(lastMs, nowMs))
		lastMs = nowMs
		dropped := 0
		for _, t := range batch {
			select {
			case in.ch <- t:
			default: // overloaded master: drop rather than block the clock
				dropped++
			}
		}
		in.offered.Add(int64(len(batch)))
		if dropped > 0 {
			in.dropped.Add(int64(dropped))
		}
	}
}

// liveMaster is the master half of a wall-clock cluster — master node,
// collector and stream sources on one LiveEnv — shared by RunLive (slaves on
// in-process pipes) and the TCP deployment (slaves in other processes).
type liveMaster struct {
	env            *engine.LiveEnv
	masterP, collP *engine.LiveProc
	inbox          *engine.LiveInbox
	master         *masterNode
	collector      *collectorNode

	masterStop, collStop, feedStop atomic.Bool
	feedDone, collDone             chan struct{}
}

// newLiveMaster builds the master and collector over conns (one per slave
// slot; nil entries are filled by admissions). A nil ing selects the
// synthetic sources at their default capacity; sources start generating at
// once. Tests pass a finite, known workload instead (or a liveIngestor with
// a deliberately tiny channel).
func newLiveMaster(cfg *Config, conns []engine.Conn, ing Ingestor) *liveMaster {
	lm := &liveMaster{env: engine.NewLiveEnv(), feedDone: make(chan struct{}), collDone: make(chan struct{})}
	lm.masterP = lm.env.NewProc("master")
	lm.collP = lm.env.NewProc("collector")
	lm.inbox = engine.NewLiveInbox(lm.collP, 1<<14)
	if ing == nil {
		ing = newLiveIngestor(liveIngestCap)
	}
	if li, ok := ing.(*liveIngestor); ok {
		go func() { defer close(lm.feedDone); li.feed(lm.env, cfg, &lm.feedStop) }()
	} else {
		close(lm.feedDone)
	}
	lm.master = newMaster(cfg, lm.masterP, conns, ing, lm.masterStop.Load)
	lm.collector = newCollector(lm.collP, lm.inbox, lm.collStop.Load)
	return lm
}

// play runs the master and collector, plus the caller's in-process nodes,
// for cfg.DurationMs of wall time, then stops the master — which shuts the
// slaves down through the protocol — and waits for master and nodes to
// return. A panicking node fails the run. The collector keeps draining until
// stopCollector.
func (lm *liveMaster) play(cfg *Config, nodes map[string]func()) error {
	errCh := make(chan error, len(nodes)+2)
	guard := func(name string, fn func()) {
		defer func() {
			if r := recover(); r != nil {
				errCh <- fmt.Errorf("core: live %s failed: %v", name, r)
			}
		}()
		fn()
	}
	var wg sync.WaitGroup
	wg.Add(1 + len(nodes))
	go func() { defer wg.Done(); guard("master", lm.master.run) }()
	for name, fn := range nodes {
		go func() { defer wg.Done(); guard(name, fn) }()
	}
	go func() { defer close(lm.collDone); guard("collector", lm.collector.run) }()

	time.Sleep(time.Duration(cfg.DurationMs) * time.Millisecond)
	lm.masterStop.Store(true)
	lm.feedStop.Store(true)
	<-lm.feedDone // within one source tick

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case err := <-errCh:
		return err
	case <-time.After(time.Duration(cfg.DurationMs)*time.Millisecond + 30*time.Second):
		return fmt.Errorf("core: live cluster did not shut down")
	}
}

// stopCollector ends the collector once every result stream has drained into
// its inbox, so the final snapshot is exact.
func (lm *liveMaster) stopCollector() {
	lm.collStop.Store(true)
	<-lm.collDone
}

// RunLive executes the full system on real goroutines with in-process
// rendezvous transports. The join module runs the configured LiveProber —
// hash-index probing by default, honest nested-loop scans (ModeScan) as the
// ablation baseline — with the paper's block-granularity expiry.
// Configuration durations are wall-clock: keep them short.
func RunLive(cfg Config) (*Result, error) { return runLive(cfg, nil) }

// runLive is RunLive with the ingestor seam of newLiveMaster.
func runLive(cfg Config, ing Ingestor) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Mode = cfg.LiveProber
	cfg.Expiry = join.ExpiryBlocks

	mConns := make([]engine.Conn, cfg.Slaves)
	lm := newLiveMaster(&cfg, mConns, ing)
	slaveP := make([]*engine.LiveProc, cfg.Slaves)
	sConns := make([]engine.Conn, cfg.Slaves)
	mesh := make([][]engine.Conn, cfg.Slaves)
	sinks := make([]*pairSinks, cfg.Slaves)
	for i := range slaveP {
		slaveP[i] = lm.env.NewProc(fmt.Sprintf("slave%d", i))
		mConns[i], sConns[i] = engine.Pipe(lm.masterP, slaveP[i])
		mesh[i] = make([]engine.Conn, cfg.Slaves)
		sinks[i] = newPairSinks(int32(i))
	}
	for i := 0; i < cfg.Slaves; i++ {
		for j := i + 1; j < cfg.Slaves; j++ {
			mesh[i][j], mesh[j][i] = engine.Pipe(slaveP[i], slaveP[j])
		}
	}

	// Every slave dials its downstream pair sinks itself and gets its own
	// Config copy carrying them (the shared cfg stays sink-free). Closing is
	// deferred before the dialing loop so a dial failure for a later slave —
	// or an error path that leaves slaves running — does not leak the sinks
	// already created; the success path closes explicitly below so a
	// delivery failure surfaces.
	closeSinks := func() error {
		var err error
		for _, ps := range sinks {
			if cerr := ps.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		return err
	}
	defer func() { _ = closeSinks() }()
	slaves := make([]*slaveNode, cfg.Slaves)
	nodes := make(map[string]func(), cfg.Slaves)
	for i := range slaves {
		if err := sinks[i].dial(&cfg); err != nil {
			return nil, err
		}
		own := sinks[i].bind(cfg, slaveP[i])
		slaves[i] = newSlave(&own, int32(i), slaveP[i], sConns[i], staticPeers(mesh[i]),
			engine.NewLiveAsyncSender(slaveP[i], lm.inbox),
			engine.NewLiveRunner(slaveP[i], cfg.inProcessWorkers()))
		nodes[slaveP[i].Name()] = slaves[i].run
	}

	// Warm-up boundary.
	warmSlaves := make([]engine.Stats, cfg.Slaves)
	var warmMaster engine.Stats
	warmTimer := time.AfterFunc(time.Duration(cfg.WarmupMs)*time.Millisecond, func() {
		warmMaster = lm.masterP.Stats()
		for i, p := range slaveP {
			warmSlaves[i] = p.Stats()
		}
		lm.collector.Reset()
	})
	defer warmTimer.Stop()

	if err := lm.play(&cfg, nodes); err != nil {
		return nil, err
	}
	lm.stopCollector()
	// All slaves have returned, so no join worker can still Emit; flush the
	// downstream sinks and surface any delivery failure.
	if err := closeSinks(); err != nil {
		return nil, err
	}

	slaveStats := make([]engine.Stats, cfg.Slaves)
	for i, p := range slaveP {
		slaveStats[i] = p.Stats().Sub(warmSlaves[i])
	}
	return newResult(cfg, cfg.DurationMs-cfg.WarmupMs, lm.master, lm.collector,
		lm.masterP.Stats().Sub(warmMaster), slaves, slaveStats), nil
}
