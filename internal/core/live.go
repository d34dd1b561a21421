package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/tuple"
)

// liveIngestor hands the source goroutine's arrivals to the master in runs:
// the feeder appends each tick's merged run to a queue and the master's
// per-slot Pull swaps the whole queue out, so no tuple crosses the edge on its
// own. Timestamps are assigned by the sources from the shared live clock, so
// the queue is in timestamp order. An overloaded master is one that has missed
// its fixed schedule: once the un-pulled arrivals span more than maxLagMs the
// feeder drops (and counts) each newer run instead of stalling the arrival
// clock or buffering without bound. The counters make the edge conserve tuples
// visibly: offered = pulled + dropped + queued at every instant.
type liveIngestor struct {
	maxLagMs int32 // un-pulled span beyond which new runs are dropped

	mu      sync.Mutex
	queue   []tuple.Tuple // arrivals since the last Pull
	spare   []tuple.Tuple // the previous Pull's slice, recycled as the next queue
	sinceMs int32         // where the un-pulled span starts (queue non-empty)
	offered int64         // generated by the sources
	dropped int64         // discarded because the master fell behind
	pulled  int64         // handed to the master
}

// newLiveIngestor builds the source edge of a live master. The run-ahead
// bound is derived, not tuned: the master pulls at least once per distribution
// epoch, so arrivals spanning more than two epochs mean it is a full epoch
// behind its schedule.
func newLiveIngestor(cfg *Config) *liveIngestor {
	return &liveIngestor{maxLagMs: 2 * cfg.DistEpochMs}
}

// Pull implements Ingestor; it never blocks on the sources. The two queue
// slices alternate, so the returned one is valid until the next Pull.
func (in *liveIngestor) Pull(int32) []tuple.Tuple {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := in.queue
	in.queue, in.spare = in.spare[:0], out
	in.pulled += int64(len(out))
	return out
}

// push queues the run of arrivals with timestamps in (fromMs, toMs], or drops
// it whole when the master has left more than maxLagMs of arrivals un-pulled.
func (in *liveIngestor) push(run []tuple.Tuple, fromMs, toMs int32) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.offered += int64(len(run))
	if len(in.queue) == 0 {
		in.sinceMs = fromMs
	} else if toMs-in.sinceMs > in.maxLagMs {
		in.dropped += int64(len(run))
		return
	}
	in.queue = append(in.queue, run...)
}

// counts returns the conservation counters and the tuples still queued.
func (in *liveIngestor) counts() (offered, pulled, dropped, queued int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.offered, in.pulled, in.dropped, int64(len(in.queue))
}

// feed generates both streams in real time, pushing arrivals every few
// milliseconds, honoring the rate schedule, until stop is set.
func (in *liveIngestor) feed(env *engine.LiveEnv, cfg *Config, stop *atomic.Bool) {
	src := newSourceIngestor(cfg)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for range tick.C {
		if stop.Load() {
			return
		}
		in.tick(src, int32(env.Now()/time.Millisecond))
	}
}

// tick pushes the sources' arrivals since the last tick, up to nowMs, as one
// run. The sources append into buffers they reuse and push copies the run
// into the queue, so a tick in steady state allocates nothing.
func (in *liveIngestor) tick(src *sourceIngestor, nowMs int32) {
	if fromMs := src.lastMs; nowMs > fromMs {
		in.push(src.Pull(nowMs), fromMs, nowMs)
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

// newLiveMaster builds the master and collector; the caller hands the master
// its slots' connections. A nil ing selects the synthetic sources; they start
// generating at once. Tests pass a finite, known workload instead (or a
// liveIngestor with a deliberately tiny run-ahead bound).
func newLiveMaster(cfg *Config, ing Ingestor) *liveMaster {
	lm := &liveMaster{env: engine.NewLiveEnv(), feedDone: make(chan struct{}), collDone: make(chan struct{})}
	lm.masterP = lm.env.NewProc("master")
	lm.collP = lm.env.NewProc("collector")
	lm.inbox = engine.NewLiveInbox(lm.collP, 1<<14)
	if ing == nil {
		ing = newLiveIngestor(cfg)
	}
	if li, ok := ing.(*liveIngestor); ok {
		go func() { defer close(lm.feedDone); li.feed(lm.env, cfg, &lm.feedStop) }()
	} else {
		close(lm.feedDone)
	}
	lm.master = newMaster(cfg, lm.masterP, ing, lm.masterStop.Load)
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
// ablation baseline — with the paper's block-granularity expiry. With
// Replicate, each slave streams its groups to the next founder's inbox.
// Configuration durations are wall-clock: keep them short.
func RunLive(cfg Config) (*Result, error) {
	res, _, err := runLive(cfg, nil)
	return res, err
}

// runLive is RunLive with the ingestor seam of newLiveMaster; it also
// returns the stopped slaves.
func runLive(cfg Config, ing Ingestor) (*Result, []*slaveNode, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	lm := newLiveMaster(&cfg, ing)
	slaveP := make([]*engine.LiveProc, cfg.Slaves)
	sConns := make([]engine.Conn, cfg.Slaves)
	mesh := make([][]engine.Conn, cfg.Slaves)
	sinks := make([]*pairSinks, cfg.Slaves)
	inboxes := make([]*engine.LiveInbox, cfg.Slaves)
	for i := range slaveP {
		slaveP[i] = lm.env.NewProc(fmt.Sprintf("slave%d", i))
		inboxes[i] = engine.NewLiveInbox(slaveP[i], cfg.streamInboxLen())
		lm.master.slots[i].conn, sConns[i] = engine.Pipe(lm.masterP, slaveP[i])
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
			return nil, nil, err
		}
		own := sinks[i].bind(cfg, slaveP[i])
		slaves[i] = newSlave(&own, int32(i), slaveP[i], sConns[i], staticPeers(mesh[i]),
			engine.NewLiveAsyncSender(slaveP[i], lm.inbox), inboxes[i],
			engine.NewLiveRunner(slaveP[i], cfg.inProcessWorkers()))
		slaves[i].replicateLocal(func(id int32) engine.AsyncSender {
			return engine.NewLiveAsyncSender(slaveP[i], inboxes[id])
		})
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
		return nil, nil, err
	}
	lm.stopCollector()
	// All slaves have returned, so no join worker can still Emit; flush the
	// downstream sinks and surface any delivery failure.
	if err := closeSinks(); err != nil {
		return nil, nil, err
	}

	slaveStats := make([]engine.Stats, cfg.Slaves)
	for i, p := range slaveP {
		slaveStats[i] = p.Stats().Sub(warmSlaves[i])
	}
	return newResult(cfg, cfg.DurationMs-cfg.WarmupMs, lm.master, lm.collector,
		lm.masterP.Stats().Sub(warmMaster), slaves, slaveStats), slaves, nil
}
