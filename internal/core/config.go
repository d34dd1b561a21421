// Package core assembles the paper's system: a master that hash-partitions
// two input streams into mini-buffers and distributes them to slaves on a
// fixed per-epoch communication pattern, slaves that run the windowed join
// module with fine-grained partition tuning, a collector that merges results
// and measures production delays, and a controller (inside the master) that
// rebalances partition-groups between suppliers and consumers and adapts the
// degree of declustering.
//
// The same protocol code runs on two engines: RunSim executes it on the
// deterministic simulated cluster (used by the experiment harness to
// regenerate the paper's figures), and the live runner executes it on real
// goroutines with in-process or TCP transports.
//
// Paper correspondence: the master runs Algorithm 1 and the distribution /
// reorganization epochs of §IV-B; occupancy-driven supplier/consumer
// pairing and state movement are §IV-C; the slave's join module is §IV-D;
// degree-of-declustering adaptation is §V-A; sub-grouped distribution is
// §V-B. Beyond the paper, live slaves are multi-prober (workerSet in
// workers.go): one process drives W per-core join workers over disjoint
// partition-group subsets, reporting aggregate occupancy so the master
// still reorganizes whole slaves. See ARCHITECTURE.md for the layer map.
package core

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/simnet"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
	"streamjoin/internal/workload"
)

// Config holds every knob of the system. DefaultConfig returns the paper's
// Table I values.
type Config struct {
	// --- cluster shape ---

	// Slaves is the total number of slave nodes (the maximum degree of
	// declustering).
	Slaves int
	// InitialActive is the number of slaves active at start (0 = all; on the
	// TCP deployment "all" is the formation roster, see MinSlaves).
	InitialActive int
	// Adaptive enables degree-of-declustering adaptation (§V-A).
	Adaptive bool
	// Beta is the DoD growth threshold: activate a node when
	// Nsup > Beta·Ncon. The paper leaves β unspecified; default 0.5.
	Beta float64
	// SubGroups is ng of §V-B: slaves are divided into ng groups, each
	// served in its own slot of the distribution epoch.
	SubGroups int
	// StaggerSlots implements the improvement §VI suggests under Figure
	// 12: each slave delays its connection initiation according to its
	// position in the (fixed) service order, spreading contacts evenly
	// over the slot instead of stampeding at its start. This shrinks the
	// serial-order divergence of per-slave communication times.
	StaggerSlots bool

	// --- partitioning and join ---

	// Partitions is npart, the number of logical hash partitions (the
	// master's level of indirection).
	Partitions int
	// PartitionsPerGroup packs consecutive partitions into one
	// partition-group, the unit of movement and fine tuning (see
	// ARCHITECTURE.md, "Where reorganization decisions live").
	PartitionsPerGroup int
	// WindowMs is the sliding-window length W in milliseconds.
	WindowMs int32
	// Theta is the fine-tuning threshold θ in bytes.
	Theta int64
	// FineTune enables fine-grained partition tuning (§IV-D).
	FineTune bool

	// --- epochs ---

	// DistEpochMs is the distribution epoch t_d in milliseconds.
	DistEpochMs int32
	// ReorgEpochMs is the reorganization epoch t_r in milliseconds; it must
	// be a multiple of DistEpochMs.
	ReorgEpochMs int32

	// --- load management ---

	// ThSup and ThCon classify slaves by average buffer occupancy:
	// supplier above ThSup, consumer below ThCon.
	ThSup float64
	ThCon float64
	// SlaveBufBytes is the memory allotted to a slave's stream buffer; the
	// occupancy metric divides by it.
	SlaveBufBytes int64
	// SlaveMemBytes optionally bounds each slave's window-state memory
	// (missing or zero entries mean unlimited). When bounded, the
	// occupancy slave i reports is the maximum of its buffer occupancy
	// and windowBytes/SlaveMemBytes[i], realizing the paper's
	// memory-limited-nodes extension (§VI: "based on the incorporation of
	// the memory occupancy information during partition reorganizations").
	// A slave crowding its memory is classified as a supplier even when
	// its CPU keeps up, so state drains toward roomier nodes.
	SlaveMemBytes []int64

	// --- workload ---

	// BackgroundLoad models the paper's non-dedicated cluster: entry i is
	// the fraction of slave i's CPU consumed by other applications, in
	// [0, 0.95]. Simulated join work on that slave slows down by
	// 1/(1−load). Missing entries mean 0 (dedicated node).
	BackgroundLoad []float64

	// Rate is the per-stream mean arrival rate (tuples/second).
	Rate float64
	// RateSchedule optionally changes the rate during the run: each step
	// applies from AtMs on. Steps must be in increasing AtMs order.
	RateSchedule []RateStep
	// Skew is the b-model bias of join-attribute values.
	Skew float64
	// Domain is the join-attribute domain size.
	Domain int32
	// Seed drives every random choice (workload and controller).
	Seed uint64

	// --- run ---

	// DurationMs is the total run length; WarmupMs is discarded.
	DurationMs int32
	WarmupMs   int32

	// --- engine details ---

	// Cost is the simulated CPU cost model.
	Cost CostModel
	// Net is the simulated interconnect.
	Net simnet.Params
	// ChunkTuples caps the tuples a slave processes per round so that it
	// can honor epoch boundaries while backlogged. It is also the smallest
	// installment a state movement streams per epoch (installmentSize).
	ChunkTuples int
	// LiveProber is query 0's prober when Queries is empty: join.ModeHash
	// (the default, key→tuple-slot indexes, O(matches) probes) or
	// join.ModeScan (the paper's block-nested-loop scan, kept as the
	// ablation baseline). With Queries it must stay join.ModeHash; each
	// query names its own. The simulation ignores it.
	LiveProber join.Mode
	// sim is set by RunSim: the simulation joins with the indexed prober
	// (virtual CPU is charged from the modeled scan length) and exact expiry
	// (byte-precise window accounting), the live engines with each query's
	// prober and the paper's block expiry.
	sim bool

	// Sink is query 0's Sink when Queries is empty: it receives every
	// round's materialized pairs from the live probers (see join.Sink for
	// the buffer hand-off contract). Library callers of
	// RunLive/ServeSlaveTCP set it to consume join output in-process; nil
	// keeps the default discard-after-count behavior. A slave running
	// several join workers calls the one Sink from all of them, so
	// implementations must be safe for concurrent use. With Queries it must
	// stay nil. The simulation ignores it (the indexed prober materializes
	// nothing).
	Sink join.Sink

	// Queries registers the join queries to run over the same ingested
	// window set: every live slave ingests and expires each
	// partition-group's windows once per round and probes them for every
	// registered query, producing per-query result batches and (with
	// per-query SinkAddrs or Sinks) per-query pair streams. Empty means one
	// query, ID 0, with LiveProber and Sink (effectiveQueries). A TCP
	// master sends its Queries to every slave, whose own are replaced; a
	// master without Queries sends none. The simulation runs every query
	// with its indexed prober.
	Queries []QuerySpec

	// Workers is the number of join workers a live slave process hosts:
	// each worker owns the disjoint subset of the slave's partition-groups
	// that hashes to it (group mod W), with its own windowed stores and
	// prober index, and the processing phase of every distribution epoch
	// fans out across all of them. 0 (the default) means one worker per CPU
	// core for a slave that owns its process (the TCP deployment); RunLive,
	// whose slaves share one process, divides the cores across them.
	// Occupancy and memory reports aggregate across workers, so the
	// master's reorganization still sees one slave. The simulation always
	// runs one worker (its virtual clock is single-threaded); W=1 live
	// slaves run the original inline loop.
	Workers int

	// WireBatchBytes is the batched framing threshold of the TCP
	// deployment: deferrable messages (state transfers to the same peer,
	// result batches to the collector) coalesce into one length-prefixed
	// physical frame until this many encoded payload bytes are pending, or
	// the protocol flushes (every epoch's exchange, result flush and state
	// movement). 0 means no size-triggered flush. Only physical framing
	// changes; WireSize accounting is untouched.
	WireBatchBytes int

	// --- cluster membership (TCP deployment only) ---

	// MinSlaves is the size of the formation roster: the master accepts
	// joining slaves at any time, starts the epoch schedule once MinSlaves
	// have dialed in, and keeps admitting newcomers up to the Slaves
	// capacity while the join runs. 0 means Slaves — the cluster forms when
	// every slot is taken, and a joiner can only ever replace a crashed or
	// departed slave.
	MinSlaves int
	// HeartbeatMs is the interval of the membership heartbeat: every joined
	// slave opens a second control connection and pings the master at this
	// period. Default 500 ms.
	HeartbeatMs int32
	// HeartbeatMisses is the failure-detection budget: a slave whose last
	// heartbeat is older than HeartbeatMisses×HeartbeatMs is declared dead,
	// its groups are re-adopted empty by the survivors, and the run
	// continues without it. Default 3.
	HeartbeatMisses int
	// Replicate enables buddy replication of window state on the TCP
	// deployment: besides the window stream every move already sends, each
	// slave keeps one buddy stream per owned partition-group toward the next
	// roster member, one WindowDelta per epoch, and a crash promotes the
	// buddy's shadows instead of re-adopting the groups empty — output that
	// needed the dead slave's windows survives the eviction. Off, a crashed
	// slave's groups are re-adopted empty, and only moves send WindowDeltas.
	Replicate bool

	// --- transport hardening (TCP deployment only) ---

	// Transport is the dial/listen seam every live connection is created
	// through: control, mesh, results, heartbeat, replication, and sink.
	// nil means the operating system's TCP stack (engine.TCP); tests inject
	// a fault-injecting transport (internal/faultnet) here.
	Transport engine.Transport
	// WireDeadlineMs is the per-operation write deadline, in milliseconds,
	// armed on every live connection — a peer that stops draining (TCP
	// zero-window, half-open conn) fails the write within this bound
	// instead of wedging the epoch barrier, which feeds the same
	// failure-handling path a closed connection does. Read deadlines are
	// derived from it with cadence margins (see wireDeadline and friends).
	// 0 means the default 30 s; negative disables all wire deadlines.
	WireDeadlineMs int32
	// FormTimeoutMs bounds how long the master waits for the formation
	// roster before giving up, and pads every slave's handshake reads (which
	// legitimately idle until the cluster forms).
	// 0 means the default 2 minutes.
	FormTimeoutMs int32
	// DialBudgetMs is the overall budget of one dialRetry: attempts with
	// jittered exponential backoff continue until the budget is exhausted.
	// 0 means the default 20 s.
	DialBudgetMs int32
	// SinkSpoolBytes bounds the pair bytes a slave's SocketSink spools in
	// memory while reconnecting to a dead downstream consumer; batches
	// beyond the cap are dropped and accounted (Stats dropped counter).
	// 0 means the default 1 MiB.
	SinkSpoolBytes int64
}

// DefaultConfig returns the paper's Table I defaults on the calibrated
// simulated cluster (ARCHITECTURE.md, "Layer map"; DefaultCostModel holds
// the calibration).
func DefaultConfig() Config {
	return Config{
		Slaves:             4,
		InitialActive:      0, // all
		Adaptive:           false,
		Beta:               0.5,
		SubGroups:          1,
		Partitions:         60,
		PartitionsPerGroup: 1,
		WindowMs:           10 * 60 * 1000, // W = 10 min
		Theta:              1_500_000,      // θ = 1.5 MB
		FineTune:           true,
		DistEpochMs:        2_000,  // t_d = 2 s
		ReorgEpochMs:       20_000, // t_r = 20 s
		ThSup:              0.5,
		ThCon:              0.01,
		SlaveBufBytes:      1 << 20, // 1 MB stream buffer
		Rate:               1500,
		Skew:               0.7,
		Domain:             10_000_000,
		Seed:               1,
		DurationMs:         20 * 60 * 1000, // 20 min runs
		WarmupMs:           10 * 60 * 1000, // 10 min warm-up
		Cost:               DefaultCostModel(),
		Net:                simnet.DefaultParams(),
		ChunkTuples:        4096,
		LiveProber:         join.ModeHash,
		WireBatchBytes:     32 << 10,
		HeartbeatMs:        500,
		HeartbeatMisses:    3,
	}
}

// Validate checks configuration consistency.
func (c *Config) Validate() error {
	switch {
	case c.Slaves < 1:
		return fmt.Errorf("core: Slaves = %d", c.Slaves)
	case c.MinSlaves < 0 || c.MinSlaves > c.Slaves:
		return fmt.Errorf("core: MinSlaves = %d of %d slaves", c.MinSlaves, c.Slaves)
	case c.InitialActive < 0 || c.InitialActive > c.formation():
		return fmt.Errorf("core: InitialActive = %d of %d founding slaves", c.InitialActive, c.formation())
	case c.SubGroups < 1 || c.SubGroups > c.Slaves:
		return fmt.Errorf("core: SubGroups = %d of %d slaves", c.SubGroups, c.Slaves)
	case c.Partitions < 1:
		return fmt.Errorf("core: Partitions = %d", c.Partitions)
	case c.PartitionsPerGroup < 1 || c.Partitions%c.PartitionsPerGroup != 0:
		return fmt.Errorf("core: PartitionsPerGroup %d must divide Partitions %d",
			c.PartitionsPerGroup, c.Partitions)
	case c.WindowMs <= 0:
		return fmt.Errorf("core: WindowMs = %d", c.WindowMs)
	case c.FineTune && c.Theta <= 0:
		return fmt.Errorf("core: Theta = %d", c.Theta)
	case c.DistEpochMs <= 0:
		return fmt.Errorf("core: DistEpochMs = %d", c.DistEpochMs)
	case c.ReorgEpochMs < c.DistEpochMs || c.ReorgEpochMs%c.DistEpochMs != 0:
		return fmt.Errorf("core: ReorgEpochMs %d must be a positive multiple of DistEpochMs %d",
			c.ReorgEpochMs, c.DistEpochMs)
	case !(c.ThCon >= 0 && c.ThCon < c.ThSup && c.ThSup < 1):
		return fmt.Errorf("core: thresholds need 0 ≤ ThCon < ThSup < 1, got %v, %v", c.ThCon, c.ThSup)
	case c.SlaveBufBytes <= 0:
		return fmt.Errorf("core: SlaveBufBytes = %d", c.SlaveBufBytes)
	case !workload.ValidRate(c.Rate):
		return fmt.Errorf("core: Rate = %v", c.Rate)
	case !(c.Skew >= 0.5 && c.Skew < 1):
		return fmt.Errorf("core: Skew = %v", c.Skew)
	case c.Domain <= 0:
		return fmt.Errorf("core: Domain = %d", c.Domain)
	case c.DurationMs <= 0 || c.WarmupMs < 0 || c.WarmupMs >= c.DurationMs:
		return fmt.Errorf("core: run interval [%d, %d) empty", c.WarmupMs, c.DurationMs)
	case c.ChunkTuples < 1:
		return fmt.Errorf("core: ChunkTuples = %d", c.ChunkTuples)
	case c.WireBatchBytes < 0 || c.WireBatchBytes > wire.MaxFrameBytes:
		return fmt.Errorf("core: WireBatchBytes = %d, want [0, %d]", c.WireBatchBytes, wire.MaxFrameBytes)
	case c.HeartbeatMs <= 0 || c.HeartbeatMisses < 1:
		return fmt.Errorf("core: membership needs HeartbeatMs > 0 and HeartbeatMisses >= 1, got %d/%d",
			c.HeartbeatMs, c.HeartbeatMisses)
	case c.FormTimeoutMs < 0:
		return fmt.Errorf("core: FormTimeoutMs = %d, want >= 0 (0 = default)", c.FormTimeoutMs)
	case c.DialBudgetMs < 0:
		return fmt.Errorf("core: DialBudgetMs = %d, want >= 0 (0 = default)", c.DialBudgetMs)
	case c.SinkSpoolBytes < 0:
		return fmt.Errorf("core: SinkSpoolBytes = %d, want >= 0 (0 = default)", c.SinkSpoolBytes)
	case len(c.Queries) > 0 && c.Sink != nil:
		return fmt.Errorf("core: Sink is query 0's when Queries is empty; with Queries, set each query's Sink")
	case len(c.Queries) > 0 && c.LiveProber != join.ModeHash:
		return fmt.Errorf("core: LiveProber is query 0's when Queries is empty; with Queries, set each query's Prober")
	case c.Workers < 0:
		return fmt.Errorf("core: Workers = %d, want >= 0 (0 = one per core)", c.Workers)
	case c.Beta <= 0 || c.Beta >= 1:
		return fmt.Errorf("core: Beta = %v, want (0,1)", c.Beta)
	case len(c.BackgroundLoad) > c.Slaves:
		return fmt.Errorf("core: %d background loads for %d slaves",
			len(c.BackgroundLoad), c.Slaves)
	case len(c.SlaveMemBytes) > c.Slaves:
		return fmt.Errorf("core: %d memory bounds for %d slaves",
			len(c.SlaveMemBytes), c.Slaves)
	}
	seen := make(map[int32]bool, len(c.Queries))
	for i, q := range c.effectiveQueries() {
		switch {
		case q.ID < 0:
			return fmt.Errorf("core: Queries[%d].ID = %d, want >= 0", i, q.ID)
		case seen[q.ID]:
			return fmt.Errorf("core: duplicate query id %d (Queries[%d])", q.ID, i)
		case q.Prober != join.ModeHash && q.Prober != join.ModeScan:
			return fmt.Errorf("core: query %d: Prober = %v, want hash or scan", q.ID, q.Prober)
		case q.CountOnly && q.Sink != nil:
			return fmt.Errorf("core: query %d: CountOnly skips materialization, so Sink would never fire", q.ID)
		case q.CountOnly && q.SinkAddr != "":
			return fmt.Errorf("core: query %d: CountOnly skips materialization, so SinkAddr would receive nothing", q.ID)
		case q.SinkAddr != "" && q.Sink != nil:
			return fmt.Errorf("core: query %d: Sink and SinkAddr are mutually exclusive", q.ID)
		}
		if q.SinkAddr != "" {
			if _, _, err := net.SplitHostPort(q.SinkAddr); err != nil {
				return fmt.Errorf("core: query %d: SinkAddr: %w", q.ID, err)
			}
		}
		seen[q.ID] = true
	}
	for i, m := range c.SlaveMemBytes {
		if m < 0 {
			return fmt.Errorf("core: SlaveMemBytes[%d] = %d", i, m)
		}
	}
	for i, b := range c.BackgroundLoad {
		if b < 0 || b > 0.95 {
			return fmt.Errorf("core: BackgroundLoad[%d] = %v, want [0, 0.95]", i, b)
		}
	}
	for i, st := range c.RateSchedule {
		if !workload.ValidRate(st.Rate) {
			return fmt.Errorf("core: RateSchedule[%d].Rate = %v", i, st.Rate)
		}
		if i > 0 && st.AtMs <= c.RateSchedule[i-1].AtMs {
			return fmt.Errorf("core: RateSchedule not increasing at %d", i)
		}
	}
	return nil
}

// RateStep is one step of a piecewise-constant rate schedule.
type RateStep struct {
	AtMs int32
	Rate float64
}

// QuerySpec registers one join query in Config.Queries: its identity,
// prober, and output disposition. All queries share each slave's ingested
// windows; a query adds only its probe state and its own output path.
type QuerySpec struct {
	// ID identifies the query in every result and pair batch it produces.
	// IDs must be unique.
	ID int32
	// Prober selects the query's live prober: join.ModeHash or
	// join.ModeScan. The simulation ignores it (every query runs indexed).
	Prober join.Mode
	// CountOnly makes the live probers skip the query's pair
	// materialization entirely: output counts, delay accounting, and every
	// figure stay identical, but no join.Pair is ever formed
	// ("-query ID:PROBER:count"). Mutually exclusive with Sink and SinkAddr.
	CountOnly bool
	// SinkAddr, when non-empty, ships the query's materialized pairs to an
	// external downstream consumer at this HOST:PORT
	// ("-query ID:PROBER:tcp:HOST:PORT"): each live slave dials the
	// consumer directly and streams wire.PairBatch messages through an
	// engine.SocketSink, whose bounded in-flight queue backpressures the
	// join workers when the consumer falls behind (see cmd/sjoin-collect
	// for the reference consumer). Join output never funnels through the
	// master. Queries sharing an address share one connection, multiplexed
	// by query id. Mutually exclusive with Sink; ignored by the simulation.
	SinkAddr string
	// Sink consumes the query's pairs in-process (library callers; see
	// join.Sink).
	Sink join.Sink
}

// effectiveQueries resolves Config.Queries: the registered specs, or query
// 0 with LiveProber and Sink — the one place either field is read.
func (c *Config) effectiveQueries() []QuerySpec {
	if len(c.Queries) > 0 {
		return c.Queries
	}
	return []QuerySpec{{ID: 0, Prober: c.LiveProber, Sink: c.Sink}}
}

// LiveWorkers resolves Workers for a slave that has a whole process (and
// machine share) to itself, as in the TCP deployment: the configured count,
// or one join worker per CPU core when unset.
func (c *Config) LiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// inProcessWorkers resolves Workers for RunLive, where all cfg.Slaves
// slaves share one process: an unset count divides the cores across the
// slaves instead of oversubscribing the machine by a factor of Slaves.
func (c *Config) inProcessWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	w := runtime.NumCPU() / c.Slaves
	if w < 1 {
		w = 1
	}
	return w
}

// memBound returns slave i's window-memory bound (0 = unlimited).
func (c *Config) memBound(i int32) int64 {
	if int(i) >= len(c.SlaveMemBytes) {
		return 0
	}
	return c.SlaveMemBytes[i]
}

// subgroupOf returns the sub-group slave i belongs to.
func (c *Config) subgroupOf(i int) int { return i % c.SubGroups }

// slotOffset returns how far into each distribution epoch slave i initiates
// its exchange: the start of its sub-group's slot, plus — with StaggerSlots —
// a delay proportional to its rank in the fixed service order (§VI's
// suggested refinement under Figure 12).
func (c *Config) slotOffset(i int) time.Duration {
	td := time.Duration(c.DistEpochMs) * time.Millisecond
	slotLen := td / time.Duration(c.SubGroups)
	off := time.Duration(c.subgroupOf(i)) * slotLen
	if c.StaggerSlots {
		rank := i / c.SubGroups
		members := (c.Slaves - c.subgroupOf(i) + c.SubGroups - 1) / c.SubGroups
		if members > 0 {
			off += time.Duration(rank) * slotLen / time.Duration(members)
		}
	}
	return off
}

// liveDataSlots is k of the live engines: how many times per distribution
// epoch the master ships an active slave its tuples. A tuple waits in the
// mini-buffers for the next send, about t_d/(2k), so each extra slot cuts
// the delay; but the slave resumes its join rounds more often, each time on
// colder caches, so CPU per tuple rises (PERFORMANCE.md has the sweep over
// k and the per-slot CPU budget). k is 5: going from 3 to 5 took the
// benchmark's steady-tcp delay p50 from about 47 to 31 ms for 10–20 % more
// CPU per tuple, nearly all of it in the join index's lookups on cold
// entries; 7 would buy about 7 ms more for two more resumes per epoch. And
// k stays odd, so no send of the default schedule lands on an epoch's
// midpoint e·t_d + t_d/2: a caller that samples the run there, between two
// sends (the benchmark's warm-up boundary and stop), would otherwise race a
// data slot's batch.
const liveDataSlots = 5

// dataSlots returns k: an active slave takes its tuples at its epoch
// exchange and at k−1 data slots t_d/k apart, while control — Hello,
// directives, flags, acks, the result flush — stays once per epoch. The
// simulation keeps the paper's one delivery per epoch.
func (c *Config) dataSlots() int {
	if c.sim {
		return 1
	}
	return liveDataSlots
}

// slowdown returns the CPU dilation factor of slave i under its background
// load.
func (c *Config) slowdown(i int32) float64 {
	if int(i) >= len(c.BackgroundLoad) {
		return 1
	}
	return 1 / (1 - c.BackgroundLoad[i])
}

// NumGroups returns the number of partition-groups.
func (c *Config) NumGroups() int { return c.Partitions / c.PartitionsPerGroup }

// GroupOfPartition maps a partition to its group.
func (c *Config) GroupOfPartition(p int) int32 { return int32(p / c.PartitionsPerGroup) }

// PartitionOfKey maps a join-attribute value to its partition.
func (c *Config) PartitionOfKey(key int32) int { return tuple.PartitionOf(key, c.Partitions) }

// GroupOfKey maps a join-attribute value to its partition-group.
func (c *Config) GroupOfKey(key int32) int32 {
	return c.GroupOfPartition(c.PartitionOfKey(key))
}

// formation resolves MinSlaves into the number of slaves that must join
// before a TCP cluster starts its epoch schedule (0 = every slot).
func (c *Config) formation() int {
	if c.MinSlaves == 0 {
		return c.Slaves
	}
	return c.MinSlaves
}

// initialActive resolves InitialActive (0 = all slaves).
func (c *Config) initialActive() int {
	if c.InitialActive == 0 {
		return c.Slaves
	}
	return c.InitialActive
}

// transport resolves Transport (nil = the OS TCP stack).
func (c *Config) transport() engine.Transport {
	if c.Transport != nil {
		return c.Transport
	}
	return engine.TCP
}

// wireDeadline resolves WireDeadlineMs into the per-write deadline armed on
// every live connection (0 = deadlines disabled).
func (c *Config) wireDeadline() time.Duration {
	switch {
	case c.WireDeadlineMs < 0:
		return 0
	case c.WireDeadlineMs == 0:
		return 30 * time.Second
	}
	return time.Duration(c.WireDeadlineMs) * time.Millisecond
}

// meshReadDeadline is the idle read deadline of mesh, replication, and
// heartbeat connections: the wire deadline plus one reorganization epoch,
// the longest legitimate gap between messages on those paths (state arrives
// within the directive's epoch, replication deltas and heartbeats far more
// often — the margin is deliberately generous so a deadline trip means a
// genuinely wedged peer, not a slow one).
func (c *Config) meshReadDeadline() time.Duration {
	wd := c.wireDeadline()
	if wd == 0 {
		return 0
	}
	return wd + time.Duration(c.ReorgEpochMs)*time.Millisecond
}

// meshPatience bounds how long a slave waits for a peer connection to
// appear in its mesh table before treating the peer as unreachable. It must
// stay below ctlReadDeadline — a supplier blocked on an absent consumer has
// to report its next Hello before the master's control deadline declares
// *it* dead — which meshReadDeadline guarantees by construction.
func (c *Config) meshPatience() time.Duration {
	if d := c.meshReadDeadline(); d > 0 {
		return d
	}
	return 15 * time.Second
}

// ctlReadDeadline is the idle read deadline of control connections after
// formation. It exceeds meshReadDeadline by one wire deadline on purpose:
// a slave wedged on a mesh read recovers (and sends its Hello) strictly
// before the master's control read gives up on it, so a transient mesh
// stall degrades that one state move instead of evicting a live slave —
// while a slave wedged for good still escalates into the same eviction
// path heartbeat death uses.
func (c *Config) ctlReadDeadline() time.Duration {
	wd := c.wireDeadline()
	if wd == 0 {
		return 0
	}
	return 2*wd + time.Duration(c.ReorgEpochMs)*time.Millisecond
}

// formReadDeadline is the read deadline of a slave's control connection
// during the join handshake, which legitimately idles from admission until
// the cluster forms.
func (c *Config) formReadDeadline() time.Duration {
	if c.wireDeadline() == 0 {
		return 0
	}
	return c.formTimeout() + c.ctlReadDeadline()
}

// formTimeout resolves FormTimeoutMs (0 = default 2 minutes).
func (c *Config) formTimeout() time.Duration {
	if c.FormTimeoutMs > 0 {
		return time.Duration(c.FormTimeoutMs) * time.Millisecond
	}
	return 2 * time.Minute
}

// dialBudget resolves DialBudgetMs (0 = default 20 s).
func (c *Config) dialBudget() time.Duration {
	if c.DialBudgetMs > 0 {
		return time.Duration(c.DialBudgetMs) * time.Millisecond
	}
	return 20 * time.Second
}

// epochsPerReorg is t_r / t_d.
func (c *Config) epochsPerReorg() int64 {
	return int64(c.ReorgEpochMs / c.DistEpochMs)
}

// joinConfig builds the join-module configuration, one join.QueryConfig
// per effective query. The simulation runs every query indexed (see sim).
func (c *Config) joinConfig() join.Config {
	jc := join.Config{
		WindowMs: c.WindowMs,
		Theta:    c.Theta,
		FineTune: c.FineTune,
		Expiry:   join.ExpiryBlocks,
	}
	if c.sim {
		jc.Expiry = join.ExpiryExact
	}
	qs := c.effectiveQueries()
	jc.Queries = make([]join.QueryConfig, len(qs))
	for i, q := range qs {
		mode := q.Prober
		if c.sim {
			mode = join.ModeIndexed
		}
		jc.Queries[i] = join.QueryConfig{ID: q.ID, Mode: mode, Sink: q.Sink, CountOnly: q.CountOnly}
	}
	return jc
}

// CostModel is the simulated CPU cost of the slave and master inner loops,
// calibrated once against the paper's testbed-era hardware (see
// DefaultCostModel; ARCHITECTURE.md, "Layer map", places the simulator).
type CostModel struct {
	// TupleCompare is charged per tuple visited by the nested-loop scan.
	TupleCompare time.Duration
	// TupleIngest is charged per tuple appended to a window (hashing,
	// buffering, block management).
	TupleIngest time.Duration
	// TupleExpire is charged per tuple expired.
	TupleExpire time.Duration
	// TupleMove is charged per tuple relocated by splits, merges and state
	// (de)serialization.
	TupleMove time.Duration
	// TupleOutput is charged per output tuple formed.
	TupleOutput time.Duration
	// MasterTuple is charged per tuple the master ingests or drains.
	MasterTuple time.Duration
}

// DefaultCostModel reflects the paper's testbed: a ~933 MHz Pentium III
// running the join in Java (mpiJava), roughly 11 cycles per scanned tuple in
// the inner comparison loop, with heavier per-tuple buffer management. The
// constant anchors the 1-slave saturation knee between 1500 and 2000
// tuples/s as in Figure 5.
func DefaultCostModel() CostModel {
	return CostModel{
		TupleCompare: 12 * time.Nanosecond,
		TupleIngest:  150 * time.Nanosecond,
		TupleExpire:  25 * time.Nanosecond,
		TupleMove:    60 * time.Nanosecond,
		TupleOutput:  40 * time.Nanosecond,
		MasterTuple:  80 * time.Nanosecond,
	}
}

// Round prices a join processing round.
func (cm *CostModel) Round(r join.RoundResult) time.Duration {
	return time.Duration(r.Scanned)*cm.TupleCompare +
		time.Duration(r.Ingested)*cm.TupleIngest +
		time.Duration(r.Expired)*cm.TupleExpire +
		time.Duration(r.SplitMoves)*cm.TupleMove +
		time.Duration(r.Outputs)*cm.TupleOutput
}

// Move prices (de)serializing n tuples of moved state.
func (cm *CostModel) Move(n int) time.Duration {
	return time.Duration(n) * cm.TupleMove
}

// Master prices master-side handling of n tuples.
func (cm *CostModel) Master(n int) time.Duration {
	return time.Duration(n) * cm.MasterTuple
}
