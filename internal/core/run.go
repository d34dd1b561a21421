package core

import (
	"fmt"
	"time"

	"streamjoin/internal/des"
	"streamjoin/internal/engine"
	"streamjoin/internal/metrics"
	"streamjoin/internal/simnet"
	"streamjoin/internal/tuple"
	"streamjoin/internal/workload"
)

// Result is the outcome of a run: every metric reported over the
// measurement interval (after warm-up), plus end-of-run state.
type Result struct {
	Config Config

	// MeasuredMs is the measurement interval length.
	MeasuredMs int32

	// Delay aggregates production delays of all outputs; DelayBySlave
	// splits them per producing slave, DelayByQuery per join query (a
	// single-query run has exactly one entry, query 0).
	Delay        metrics.DelayStats
	DelayBySlave map[int32]metrics.DelayStats
	DelayByQuery map[int32]metrics.DelayStats

	// Master and Slaves are per-node resource usage over the measurement
	// interval.
	Master engine.Stats
	Slaves []engine.Stats

	// EpochLat aggregates every slave's per-epoch servicing latency over the
	// whole run: how far past its scheduled slot a slave finished the epoch
	// barrier work (result flush, Hello/Batch exchange, state movement) and
	// resumed processing. Reorganization stalls surface in its tail
	// (EpochP99).
	EpochLat metrics.DelayStats

	// SlaveWindowBytes and SlaveActive are end-of-run snapshots.
	SlaveWindowBytes []int64
	SlaveActive      []bool
	ActiveEnd        int

	// DoDTrace records the degree of declustering at each reorganization.
	DoDTrace []DoDSample

	// MovesIssued/MovesCompleted count partition-group movements over the
	// whole run. MovesDegraded counts the completed moves that installed an
	// empty group because the window state was lost in transit (dead or
	// stalled supplier with no replica shadow) — the exactly-accounted loss
	// under faults.
	MovesIssued    int
	MovesCompleted int
	MovesDegraded  int

	// MasterPeakBufBytes is the peak mini-buffer occupancy at the master
	// during the measurement interval (§V-B).
	MasterPeakBufBytes int64

	// Splits and Merges count fine-tuning operations over the whole run.
	Splits int64
	Merges int64

	// Outputs is the number of result tuples collected during measurement.
	Outputs int64

	// EpochsServed counts master distribution epochs over the whole run.
	EpochsServed int64

	// SourceOffered counts the tuples the live engines' synthetic sources
	// generated over the whole run, and SourceDropped those of them the
	// sources discarded because the master fell more than two distribution
	// epochs behind its pull schedule — offered load the cluster never saw.
	// Both are zero on the simulator, which pulls on demand.
	SourceOffered int64
	SourceDropped int64

	// TSClamped counts the tuples whose timestamp the master raised to keep
	// its per-group buffers in timestamp order (late, out-of-order arrivals).
	// Zero whenever the sources deliver in order, as the synthetic ones do.
	TSClamped int64

	// Membership counters (TCP deployment only; zero on the simulator and
	// in-process runs, whose roster never changes). Joins counts admitted
	// slaves (initial formation included), Leaves graceful departures,
	// Evictions crash declarations.
	// GroupsRebalanced counts partition-group movements driven by
	// membership transitions (join rebalance, leave drain, crash adoption)
	// rather than load, and RebalanceStallMs accumulates how long those
	// movements held their group's tuple flow before the consumer acked.
	Joins            int
	Leaves           int
	Evictions        int
	GroupsRebalanced int
	RebalanceStallMs int64

	// Buddy-replication accounting (TCP runs with Replicate). A crashed
	// slave's groups are promoted from their replicas when a buddy survives
	// (GroupsPromoted) and adopted empty otherwise; LostWindowTuples
	// estimates the window tuples discarded by those empty adoptions from
	// the victim's last reported window size. PairsLost converts that to an
	// estimated output deficit at the run's observed selectivity — an
	// estimate, not a count: the true loss depends on which keys died.
	GroupsPromoted   int
	LostWindowTuples int64
	PairsLost        int64
}

// MeanDelay is the average production delay over the measurement interval.
func (r *Result) MeanDelay() time.Duration { return r.Delay.Mean() }

// EpochP99 is the 99th-percentile epoch servicing latency across all slaves
// and epochs (upper bucket edge; see metrics.DelayStats.ApproxQuantile).
func (r *Result) EpochP99() time.Duration { return r.EpochLat.ApproxQuantile(0.99) }

// XferStallTotal sums the slaves' epoch-barrier state-movement stall over
// the measurement interval (live engine; zero on the simulated engine).
func (r *Result) XferStallTotal() time.Duration {
	var total time.Duration
	for _, s := range r.Slaves {
		total += s.XferStall
	}
	return total
}

// XferStallMax is the worst single-epoch state-movement stall any slave
// observed over the whole run — the pause a reorganization inserts into the
// epoch cadence, which streaming a move as installments exists to bound.
func (r *Result) XferStallMax() time.Duration {
	var max time.Duration
	for _, s := range r.Slaves {
		if s.XferStallMax > max {
			max = s.XferStallMax
		}
	}
	return max
}

// AggregateComm sums slave communication time over the measurement interval.
func (r *Result) AggregateComm() time.Duration {
	var total time.Duration
	for i, s := range r.Slaves {
		if r.usedSlave(i) {
			total += s.Comm
		}
	}
	return total
}

// usedSlave reports whether slave i participated at all (activity filter for
// per-node statistics under adaptive declustering).
func (r *Result) usedSlave(i int) bool {
	return r.Slaves[i].MsgsSent > 0 || r.Slaves[i].MsgsRecv > 0
}

// CommSummary summarizes per-slave communication time (min/avg/max over the
// slaves that participated), as plotted in Figure 12.
func (r *Result) CommSummary() metrics.Summary {
	var sum metrics.Summary
	for i, s := range r.Slaves {
		if r.usedSlave(i) {
			sum.Observe(s.Comm.Seconds())
		}
	}
	return sum
}

// AvgSlaveCPU averages CPU time over participating slaves.
func (r *Result) AvgSlaveCPU() time.Duration {
	var total time.Duration
	n := 0
	for i, s := range r.Slaves {
		if r.usedSlave(i) {
			total += s.CPU
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// AvgSlaveIdle averages idle time over participating slaves.
func (r *Result) AvgSlaveIdle() time.Duration {
	var total time.Duration
	n := 0
	for i, s := range r.Slaves {
		if r.usedSlave(i) {
			total += s.Idle
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// sourceIngestor generates the join's two synthetic Poisson streams, applying
// the configured rate schedule at step boundaries. The simulated master pulls
// from it directly; the live feeder pulls from it on every tick. It appends
// into buffers it reuses, so the slice Pull returns is valid until the next
// Pull — the Ingestor contract.
type sourceIngestor struct {
	s1, s2      *workload.Source
	schedule    []RateStep
	lastMs      int32
	b1, b2, out []tuple.Tuple
}

func newSourceIngestor(cfg *Config) *sourceIngestor {
	s1, s2 := workload.Pair(workload.Config{Rate: cfg.Rate, Skew: cfg.Skew, Domain: cfg.Domain, Seed: cfg.Seed})
	return &sourceIngestor{s1: s1, s2: s2, schedule: cfg.RateSchedule}
}

// Pull implements Ingestor.
func (in *sourceIngestor) Pull(uptoMs int32) []tuple.Tuple {
	if uptoMs <= in.lastMs {
		return nil
	}
	in.out = in.out[:0]
	for len(in.schedule) > 0 && in.schedule[0].AtMs < uptoMs {
		step := in.schedule[0]
		in.schedule = in.schedule[1:]
		if step.AtMs > in.lastMs {
			in.pull(step.AtMs)
		}
		in.s1.SetRate(step.Rate)
		in.s2.SetRate(step.Rate)
	}
	in.pull(uptoMs)
	return in.out
}

// pull appends the merged arrivals in [lastMs, uptoMs) to out.
func (in *sourceIngestor) pull(uptoMs int32) {
	in.b1 = in.s1.AppendBatch(in.b1[:0], in.lastMs, uptoMs)
	in.b2 = in.s2.AppendBatch(in.b2[:0], in.lastMs, uptoMs)
	in.lastMs = uptoMs
	in.out = workload.AppendMerge(in.out, in.b1, in.b2)
}

// RunSim executes the full system on the simulated cluster and returns the
// measured Result. It is deterministic for a given Config.
func RunSim(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.sim = true

	env := des.NewEnv()
	net := simnet.New(env, cfg.Net)

	masterNd := net.NewNode("master")
	collNd := net.NewNode("collector")
	slaveNds := make([]*simnet.Node, cfg.Slaves)
	for i := range slaveNds {
		slaveNds[i] = net.NewNode(fmt.Sprintf("slave%d", i))
	}

	// Master <-> slave connections.
	neverStop := func() bool { return false }
	master := newMaster(&cfg, engine.WrapNode(masterNd), newSourceIngestor(&cfg), neverStop)
	sConns := make([]engine.Conn, cfg.Slaves)
	for i, nd := range slaveNds {
		em, es := simnet.Connect(masterNd, nd)
		master.slots[i].conn = engine.WrapEndpoint(em)
		sConns[i] = engine.WrapEndpoint(es)
	}
	// Slave mesh for state movement.
	mesh := make([][]engine.Conn, cfg.Slaves)
	for i := range mesh {
		mesh[i] = make([]engine.Conn, cfg.Slaves)
	}
	for i := 0; i < cfg.Slaves; i++ {
		for j := i + 1; j < cfg.Slaves; j++ {
			ei, ej := simnet.Connect(slaveNds[i], slaveNds[j])
			mesh[i][j] = engine.WrapEndpoint(ei)
			mesh[j][i] = engine.WrapEndpoint(ej)
		}
	}
	inbox := engine.WrapInbox(simnet.NewInbox(collNd))

	collector := newCollector(engine.WrapNode(collNd), inbox, neverStop)
	slaves := make([]*slaveNode, cfg.Slaves)
	for i := range slaves {
		// The simulation's virtual clock is single-threaded, so slaves run
		// one inline join worker regardless of cfg.Workers.
		slaves[i] = newSlave(&cfg, int32(i), engine.WrapNode(slaveNds[i]), sConns[i],
			staticPeers(mesh[i]), engine.NewSimAsyncSender(slaveNds[i], inbox), nil)
	}

	masterNd.Start(func(*simnet.Node) { master.run() })
	collNd.Start(func(*simnet.Node) { collector.run() })
	for i, nd := range slaveNds {
		s := slaves[i]
		nd.Start(func(*simnet.Node) { s.run() })
	}

	// Warm-up monitor: snapshot node stats and reset the collector at the
	// warm-up boundary so every reported metric covers only the
	// measurement interval.
	var warmMaster engine.Stats
	warmSlaves := make([]engine.Stats, cfg.Slaves)
	monitorNd := net.NewNode("monitor")
	monitorNd.Start(func(nd *simnet.Node) {
		nd.IdleUntil(time.Duration(cfg.WarmupMs) * time.Millisecond)
		warmMaster = engine.WrapNode(masterNd).Stats()
		for i, snd := range slaveNds {
			warmSlaves[i] = engine.WrapNode(snd).Stats()
		}
		collector.Reset()
		master.peakBuf = master.bufBytes
	})

	horizon := des.Time(cfg.DurationMs) * des.Time(time.Millisecond)
	if _, err := env.RunUntil(horizon); err != nil {
		env.Kill()
		return nil, err
	}
	env.Kill()

	// Distinguish a protocol deadlock from backpressure: under saturation
	// epochs slip (the master blocks on late slaves) but keep completing;
	// a deadlock freezes epoch progress entirely.
	expected := int64(cfg.DurationMs/cfg.DistEpochMs) - 1
	horizonDur := time.Duration(cfg.DurationMs) * time.Millisecond
	if master.epochsServed < expected && horizonDur-master.lastEpochAt > horizonDur/4 {
		return nil, fmt.Errorf("core: run deadlocked after %d of %d epochs (last progress at %v)",
			master.epochsServed, expected, master.lastEpochAt)
	}

	slaveStats := make([]engine.Stats, cfg.Slaves)
	for i, nd := range slaveNds {
		slaveStats[i] = engine.WrapNode(nd).Stats().Sub(warmSlaves[i])
	}
	return newResult(cfg, cfg.DurationMs-cfg.WarmupMs, master, collector,
		engine.WrapNode(masterNd).Stats().Sub(warmMaster), slaves, slaveStats), nil
}

// newResult assembles a run's Result from the master's and the collector's
// end state — the one place a Result is built, for the simulator, in-process
// pipes and the TCP deployment alike. slaves and slaveStats are nil on a TCP
// master, whose slaves live in other processes: the per-slave resource
// figures, window sizes, fine-tuning counts and epoch lateness then stay zero.
func newResult(cfg Config, measuredMs int32, m *masterNode, c *collectorNode,
	masterStats engine.Stats, slaves []*slaveNode, slaveStats []engine.Stats) *Result {
	res := &Result{
		Config:             cfg,
		MeasuredMs:         measuredMs,
		Master:             masterStats,
		Slaves:             make([]engine.Stats, cfg.Slaves),
		SlaveWindowBytes:   make([]int64, cfg.Slaves),
		SlaveActive:        make([]bool, cfg.Slaves),
		DoDTrace:           m.dodTrace,
		MovesIssued:        m.movesIssued,
		MovesCompleted:     m.movesDone,
		MovesDegraded:      m.movesDegraded,
		MasterPeakBufBytes: m.peakBuf,
		EpochsServed:       m.epochsServed,
		TSClamped:          m.tsClamped,
		Joins:              m.joins,
		Leaves:             m.leaves,
		Evictions:          m.evictions,
		GroupsRebalanced:   m.groupsMoved,
		RebalanceStallMs:   m.rebalStallMs,
		GroupsPromoted:     m.promotions,
		LostWindowTuples:   m.lostWindowTuples,
	}
	res.Delay, res.DelayBySlave, res.DelayByQuery = c.Snapshot()
	res.Outputs = res.Delay.Count
	if m.tuplesDrained > 0 {
		// Estimated pairs lost to unreplicated evictions: each window tuple
		// discarded at an eviction would, on average, have joined with the
		// same selectivity the run actually observed (outputs per drained
		// tuple). Zero whenever replication promoted every group.
		res.PairsLost = res.Outputs * m.lostWindowTuples / m.tuplesDrained
	}
	if li, ok := m.in.(*liveIngestor); ok {
		res.SourceOffered, _, res.SourceDropped, _ = li.counts()
	}
	for i, s := range m.slots {
		if res.SlaveActive[i] = s.active; s.active {
			res.ActiveEnd++
		}
	}
	for i, s := range slaves {
		res.Slaves[i] = slaveStats[i]
		res.SlaveWindowBytes[i] = s.ws.windowBytes()
		res.Splits += s.ws.splitsTotal()
		res.Merges += s.ws.mergesTotal()
		res.EpochLat.Merge(&s.epochLat)
	}
	return res
}
