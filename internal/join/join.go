// Package join implements the slave-side join module of the paper (§IV-D):
// per partition-group windowed stores for both streams, nested-loop probing
// with the head-block fresh-tuple rules, block/exact expiration, and
// fine-grained partition tuning via extendible hashing.
//
// # Processing rounds
//
// A slave processes the tuples received in one distribution epoch as a
// round. Within a round and a fine-tuning bucket the paper's head-block
// rules reduce to a fixed probe order that emits every valid pair exactly
// once:
//
//	fresh(S1) × stored(S2)            (opposite fresh excluded: S2's fresh
//	                                   tuples are not yet ingested)
//	fresh(S2) × stored(S1) ∪ fresh(S1) (the now-stale S1 head tuples)
//
// Expiration runs after probing, which realizes the paper's completeness
// rule ("while expiring a block ... the block is joined with the fresh
// tuples within the head block of the opposite mini-window"): an expiring
// block is still present while the round's fresh tuples probe it.
//
// # Probers
//
// ModeScan performs the honest block-nested-loop scan, tuple comparisons and
// all — the paper's algorithm and the live engine's ablation baseline.
//
// ModeHash maintains one index per bucket, over both streams, from each
// (key, stream) pair to the timestamps of its live tuples, in append order,
// and emits the actual matching pairs in O(matches) per probe from that one
// contiguous run — the live engine's default prober. A key's two entries
// share a probe cluster, so a tuple's probe and its append touch one cache
// line, and a key's first timestamp lives in its entry. A stored tuple is
// only its key and timestamp, so the index mirrors the store exactly and a
// probe never reads the store. The index is kept coherent across every
// mutation path of the window store: ingestion, block and exact expiry, and
// bucket splits and merges under fine tuning.
// ModeIndexed keeps the same index but only counts: a probe's match count is
// the length of its key's run, while the prober *reports* the scan length
// the nested loop would have performed; the simulation charges virtual CPU
// from that figure. The equivalence of the three modes is asserted by tests
// against a brute-force reference join.
//
// # Queries
//
// A module hosts one or more join queries over the same ingested windows.
// The windowed stores are the query-independent layer: every bucket keeps
// exactly one pair of window.Stores regardless of query count, ingested and
// expired once per round. Each registered query (Config.Queries) adds only
// its probe state on top — a hash index, or nothing for the scan prober —
// plus its own pooled round results and its own Sink.
// ProcessAll runs every query against the same arrival batch and window
// content; because probing never mutates the windows, each query's output
// is bit-identical to what a single-query module running it alone would
// produce. Without Config.Queries a module hosts one query, ID 0, built
// from Config.Mode and Config.Sink.
//
// # Allocation discipline
//
// Steady-state rounds are allocation-free. The hash prober's index is an
// open-addressing table over a timestamp arena with free-run recycling
// (hashIndex), not a map of slices; the per-round working set — bucket
// partitioning state and the backing arrays of RoundResult.Pairs and
// RoundResult.Matches, pooled per query — lives in a roundScratch owned by
// the Module and is reused across rounds. Consequently the slices in a
// returned RoundResult are only valid until the module's next Process call;
// callers that retain them must copy. A configured Sink takes over the pair
// hand-off entirely: rounds deliver pairs to Sink.Emit (which can recycle
// the buffer by returning it) and RoundResult.Pairs stays nil.
// QueryConfig.CountOnly skips pair materialization altogether for
// count-only queries.
//
// # Concurrency
//
// A Module is deliberately lock-free single-goroutine state: the unit of
// parallelism in this system is the partition-group, not the module. A
// multi-prober slave gives each of its join workers a private Module over a
// disjoint subset of the slave's partition-groups (internal/core's
// workerSet), so modules never need internal synchronization and the
// per-group join remains bit-identical to the single-worker design. The one
// shared object is a configured Sink, which every worker's module calls
// from its own goroutine: implementations must be safe for concurrent use.
package join

import (
	"fmt"
	"slices"

	"streamjoin/internal/exthash"
	"streamjoin/internal/tuple"
	"streamjoin/internal/window"
)

// Mode selects the prober implementation.
type Mode uint8

const (
	// ModeIndexed counts matches via the hash index and reports the
	// nested-loop scan length (simulation).
	ModeIndexed Mode = iota
	// ModeScan matches via real nested-loop scans (live ablation baseline).
	ModeScan
	// ModeHash matches via a per-bucket key→timestamps index over both
	// streams and emits the actual matching pairs in O(matches) per probe
	// (live default).
	ModeHash
)

func (m Mode) String() string {
	switch m {
	case ModeIndexed:
		return "indexed"
	case ModeScan:
		return "scan"
	case ModeHash:
		return "hash"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Expiry selects the window expiration policy.
type Expiry uint8

const (
	// ExpiryExact trims windows to exactly [now−W, now] each round.
	ExpiryExact Expiry = iota
	// ExpiryBlocks drops only whole expired blocks (the paper's policy).
	ExpiryBlocks
)

// QueryConfig registers one join query on a module: its identity, prober,
// and output disposition. All queries share the module's windowed stores;
// each carries only its own probe state and sink.
type QueryConfig struct {
	// ID is the query's identity, stamped into every RoundResult (and, by
	// the engines, into result and pair batches on the wire). IDs must be
	// unique within a module.
	ID int32
	// Mode selects the query's prober.
	Mode Mode
	// Sink, when non-nil, consumes the query's materialized pairs: rounds
	// deliver them to Sink.Emit and RoundResult.Pairs is nil. See Sink for
	// the buffer hand-off contract.
	Sink Sink
	// CountOnly skips pair materialization entirely: rounds still count
	// matches (Outputs, Matches and Scanned are unchanged) but no Pair is
	// ever formed and no Sink is invoked. Mutually exclusive with Sink.
	CountOnly bool
}

// Config parameterizes a join module.
type Config struct {
	// WindowMs is the sliding-window length in milliseconds (W1 = W2).
	WindowMs int32
	// Theta is the partition-tuning threshold θ in bytes: fine tuning keeps
	// each bucket's combined (both-stream) size within [θ, 2θ].
	Theta int64
	// FineTune enables partition tuning; disabled, every partition-group is
	// one monolithic scan unit (the paper's "no fine-tuning" ablation).
	FineTune bool
	// Mode selects the prober of query 0 when Queries is empty (ignored
	// otherwise).
	Mode Mode
	// Expiry selects the expiration policy.
	Expiry Expiry
	// MaxDepth bounds extendible-hashing local depths (0 = default).
	MaxDepth uint
	// Sink is query 0's Sink when Queries is empty; it must be nil
	// otherwise (each query carries its own).
	Sink Sink
	// Queries registers the module's join queries over the shared windows.
	// Empty means one query, ID 0, with Mode and Sink.
	Queries []QueryConfig
}

// Validate checks the configuration; New returns its error, so a
// misconfigured deployment is reported instead of crashing the process.
func (c *Config) Validate() error {
	switch {
	case c.WindowMs <= 0:
		return fmt.Errorf("join: WindowMs = %d, want > 0", c.WindowMs)
	case c.FineTune && c.Theta <= 0:
		return fmt.Errorf("join: Theta = %d, want > 0 when fine tuning", c.Theta)
	case len(c.Queries) > 0 && c.Sink != nil:
		return fmt.Errorf("join: Sink is query 0's when Queries is empty; with Queries, set each query's Sink")
	}
	seen := make(map[int32]bool, len(c.Queries))
	for i, q := range c.withDefaults().Queries {
		switch {
		case q.Mode > ModeHash:
			return fmt.Errorf("join: query %d: unknown prober %v", q.ID, q.Mode)
		case q.CountOnly && q.Sink != nil:
			return fmt.Errorf("join: query %d: CountOnly skips materialization, so a Sink would never fire", q.ID)
		case seen[q.ID]:
			return fmt.Errorf("join: duplicate query id %d (index %d)", q.ID, i)
		}
		seen[q.ID] = true
	}
	return nil
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxDepth == 0 {
		out.MaxDepth = exthash.DefaultMaxDepth
	}
	if len(out.Queries) == 0 {
		out.Queries = []QueryConfig{{ID: 0, Mode: out.Mode, Sink: out.Sink}}
	} else {
		// Own the slice: callers may reuse theirs, and the module's groups
		// hold a pointer to this Config for the lifetime of the module.
		out.Queries = slices.Clone(out.Queries)
	}
	return out
}

// Match reports that a probe tuple with timestamp TS produced N output
// pairs. The production delay of those outputs is measured from TS (the
// newer joining tuple) to the completion time of the round's processing.
type Match struct {
	TS int32
	N  int64
}

// Pair is one materialized join output: the probing tuple and the stored
// window tuple (of the opposite stream) it matched. The scan and hash
// probers fill Pairs; the simulation's indexed prober only counts.
type Pair struct {
	Probe  tuple.Tuple
	Stored tuple.Packed
}

// RoundResult summarizes one query's share of a group's processing round
// for the cost model and metrics. The Matches and Pairs slices are backed by
// module-owned scratch reused across rounds: they are valid until the
// module's next Process call, and callers that retain them must copy. The
// shared-window costs of a round (Ingested, Expired, tuning counters) are
// charged to the first query's result only — windows are ingested and
// expired once no matter how many queries probe them.
type RoundResult struct {
	Query   int32 // ID of the query this result belongs to
	Matches []Match
	Pairs   []Pair // materialized outputs (ModeScan and ModeHash; nil when a Sink consumed them or CountOnly is set)
	Outputs int64  // total pairs (sum of Matches[i].N)
	Scanned int64  // tuples visited by the probe (full scan length for
	// ModeIndexed/ModeScan; index entries visited for ModeHash)
	Ingested   int   // tuples appended to windows
	Expired    int   // tuples expired from windows
	SplitMoves int64 // tuples relocated by splits and merges
	Splits     int
	Merges     int
}

// perBucket is one fine-tuning bucket's share of a round: the fresh tuples
// routed to it, split by stream, in arrival order.
type perBucket struct {
	b *bucket
	f [2][]tuple.Tuple
}

// roundScratch is the reusable working set of round processing: the bucket
// partitioning state (shared — tuples are partitioned once per round) and,
// per query, the result slice and the backing arrays handed out through
// RoundResult (or a Sink). One instance lives in each Module; steady-state
// rounds therefore allocate nothing regardless of query count.
type roundScratch struct {
	perBucket []perBucket
	qres      []RoundResult // one per query, reused across rounds
	pairs     [][]Pair      // pooled backing arrays, one pool per query
	matches   [][]Match
	round     uint64 // round stamp validating bucket.scratchIdx
}

// acquire appends a (reused) perBucket entry for b and returns its index.
func (sc *roundScratch) acquire(b *bucket) int32 {
	n := len(sc.perBucket)
	if n < cap(sc.perBucket) {
		sc.perBucket = sc.perBucket[:n+1]
		e := &sc.perBucket[n]
		e.b = b
		e.f[0] = e.f[0][:0]
		e.f[1] = e.f[1][:0]
	} else {
		sc.perBucket = append(sc.perBucket, perBucket{b: b})
	}
	return int32(n)
}

// releaseBuckets clears every bucket reference in the scratch (the whole
// capacity, not just this round's length) so buckets retired by buddy
// merges are not pinned — with their window blocks and index arenas — past
// the round. The fresh-tuple slice backings stay pooled.
func (sc *roundScratch) releaseBuckets() {
	full := sc.perBucket[:cap(sc.perBucket)]
	for i := range full {
		full[i].b = nil
	}
}

// Module is a join worker's state: every partition-group it currently owns.
// A single-worker slave has one Module holding all its groups; a W-worker
// slave has W Modules over disjoint group subsets (see the package comment
// on concurrency). Methods must be called from one goroutine at a time.
type Module struct {
	cfg    Config
	groups map[int32]*Group
	splits int64
	merges int64
	sc     roundScratch
}

// New returns an empty module, or an error when the configuration is
// invalid.
func New(cfg Config) (*Module, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := len(cfg.Queries) // fixed for the module's lifetime, and so are the pools
	sc := roundScratch{qres: make([]RoundResult, n), pairs: make([][]Pair, n), matches: make([][]Match, n)}
	return &Module{cfg: cfg, groups: make(map[int32]*Group), sc: sc}, nil
}

// MustNew is New for configurations already validated by the caller (the
// engines validate the system Config up front; tests construct known-good
// ones). It panics on error.
func MustNew(cfg Config) *Module {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Ensure returns the group with the given ID, creating it empty if needed.
func (m *Module) Ensure(id int32) *Group {
	if g, ok := m.groups[id]; ok {
		return g
	}
	g := newGroup(&m.cfg, id)
	m.groups[id] = g
	return g
}

// Get returns the group with the given ID.
func (m *Module) Get(id int32) (*Group, bool) {
	g, ok := m.groups[id]
	return g, ok
}

// Remove detaches and returns the group with the given ID (state movement).
func (m *Module) Remove(id int32) (*Group, bool) {
	g, ok := m.groups[id]
	if ok {
		delete(m.groups, id)
	}
	return g, ok
}

// Add installs a detached group (the counterpart of Remove). It panics if
// the ID is taken.
func (m *Module) Add(g *Group) {
	if _, ok := m.groups[g.id]; ok {
		panic(fmt.Sprintf("join: group %d already present", g.id))
	}
	// The group may come from another module whose scratch round counter is
	// ahead of ours; clear the bucket stamps so the first round here
	// re-acquires every bucket instead of trusting a stale index.
	g.dir.Buckets(func(_ uint32, _ uint, b *bucket) { b.scratchRound = 0 })
	m.groups[g.id] = g
}

// NumGroups reports the number of owned groups.
func (m *Module) NumGroups() int { return len(m.groups) }

// IDs returns the owned group IDs in increasing order.
func (m *Module) IDs() []int32 {
	out := m.AppendIDs(make([]int32, 0, len(m.groups)))
	slices.Sort(out)
	return out
}

// AppendIDs appends the owned group IDs to dst in arbitrary order and
// returns the extended slice (the allocation-free form of IDs for callers
// that reuse a buffer and sort or dedup themselves).
func (m *Module) AppendIDs(dst []int32) []int32 {
	for id := range m.groups {
		dst = append(dst, id)
	}
	return dst
}

// WindowBytes reports the combined logical size of all window state held.
func (m *Module) WindowBytes() int64 {
	var n int64
	for _, g := range m.groups {
		n += g.WindowBytes()
	}
	return n
}

// IndexBytes reports the in-memory footprint of the prober's auxiliary
// structures across all groups: exact for ModeHash (the open-addressing
// tables plus the slot arenas, measured, not modeled), modeled for
// ModeIndexed as one key→count entry per live key, zero for ModeScan (which
// keeps none).
// Memory-limited reorganization charges this against SlaveMemBytes, so a
// node's true footprint — window blocks plus index — drives load shedding.
func (m *Module) IndexBytes() int64 {
	var n int64
	for _, g := range m.groups {
		n += g.IndexBytes()
	}
	return n
}

// MemoryBytes is the module's total accounted footprint: window state plus
// prober index.
func (m *Module) MemoryBytes() int64 { return m.WindowBytes() + m.IndexBytes() }

// Splits and Merges report cumulative fine-tuning activity.
func (m *Module) Splits() int64 { return m.splits }

// Merges reports cumulative buddy merges.
func (m *Module) Merges() int64 { return m.merges }

// Process runs one round for the group — ingest and probe the given
// stream-tagged tuples (timestamp-ordered) for every registered query, then
// expire, then fine-tune — and returns the first query's result (ProcessAll
// returns every query's). Every owned group should be processed every round
// (with tuples=nil when none arrived) so expiration keeps up. See
// RoundResult for the returned slices' lifetime.
func (m *Module) Process(id int32, nowMs int32, tuples []tuple.Tuple) RoundResult {
	return m.ProcessAll(id, nowMs, tuples)[0]
}

// ProcessAll runs one round for the group, probing every registered query
// against the same arrival batch and shared window content, and returns one
// RoundResult per query in Config.Queries order. Windows are ingested and
// expired once; their costs (Ingested, Expired, tuning counters) appear on
// the first result only. The returned slice and everything it references are
// module-owned scratch, valid until the next Process/ProcessAll call. Each
// query's pairs go to its own Sink when configured.
func (m *Module) ProcessAll(id int32, nowMs int32, tuples []tuple.Tuple) []RoundResult {
	g := m.Ensure(id)
	results := g.process(&m.sc, nowMs, tuples)
	m.splits += int64(results[0].Splits)
	m.merges += int64(results[0].Merges)
	for qi := range results {
		res := &results[qi]
		m.sc.matches[qi], m.sc.pairs[qi] = res.Matches, res.Pairs
		if sink := m.cfg.Queries[qi].Sink; sink != nil {
			if len(res.Pairs) > 0 {
				// Hand the buffer off; the sink decides whether it comes back.
				m.sc.pairs[qi] = sink.Emit(id, res.Pairs)
			}
			// A sink-configured query never exposes its pooled buffer, even
			// on a zero-match round.
			res.Pairs = nil
		}
	}
	return results
}

// bucketQuery is one query's probe state over a bucket's shared windows:
// the key→timestamps hash index of the hash and indexed probers, one table
// over both streams. The scan prober keeps no per-query state at all.
type bucketQuery struct {
	mode Mode
	idx  *hashIndex // (key, stream) → live timestamps, append order; nil for ModeScan
}

// bucket is one fine-tuning unit: a mini-partition-group in paper terms.
// The two window stores are the query-independent layer — one copy no
// matter how many queries the module hosts; qs holds each query's probe
// state over them, parallel to Config.Queries.
type bucket struct {
	w  [2]*window.Store
	qs []bucketQuery
	// onExp keeps every query's hash index coherent with each stream's
	// expiry; built once per bucket so rounds create no closures.
	onExp [2]func([]tuple.Packed)
	// scratchRound/scratchIdx locate this bucket's perBucket entry in the
	// round's scratch (valid when scratchRound matches the current round).
	scratchRound uint64
	scratchIdx   int32
}

func newBucket(queries []QueryConfig) *bucket {
	b := &bucket{qs: make([]bucketQuery, len(queries))}
	b.w[0], b.w[1] = window.NewStore(), window.NewStore()
	aux := false
	for qi := range queries {
		q := &b.qs[qi]
		q.mode = queries[qi].Mode
		if q.mode != ModeScan {
			q.idx = newHashIndex()
			aux = true
		}
	}
	if aux {
		for s := 0; s < 2; s++ {
			b.onExp[s] = b.expireAux(s)
		}
	}
	return b
}

// expireAux drops stream s's expired tuples from every query's hash index.
// Stores expire strictly oldest-first, so an expiring tuple is always the
// head of its key's run.
func (b *bucket) expireAux(s int) func([]tuple.Packed) {
	return func(chunk []tuple.Packed) {
		for qi := range b.qs {
			if idx := b.qs[qi].idx; idx != nil {
				for _, p := range chunk {
					idx.removeOldest(p.Key, s)
				}
			}
		}
	}
}

func (b *bucket) bytes() int64 { return b.w[0].Bytes() + b.w[1].Bytes() }

// countIndexKeyBytes models one indexed-mode entry per live key: an int32
// key plus an int32 count, with Go map bucket overhead and load-factor slack
// amortized. The simulator's memory figures were recorded with this model;
// the hash prober reports its index's exact footprint instead.
const countIndexKeyBytes = 16

// indexBytes reports the footprint of the bucket's prober structures across
// all queries — exact for ModeHash, modeled for ModeIndexed. The shared
// window stores are deliberately excluded: they are charged once through
// bucket.bytes, never per query.
func (b *bucket) indexBytes() int64 {
	var n int64
	for qi := range b.qs {
		switch q := &b.qs[qi]; q.mode {
		case ModeIndexed:
			n += int64(q.idx.liveKeys(0)+q.idx.liveKeys(1)) * countIndexKeyBytes
		case ModeHash:
			n += q.idx.footprint()
		}
	}
	return n
}

// ingestPacked appends p to stream s's window — once, regardless of query
// count — and keeps every query's auxiliary structures coherent. Round
// ingestion and state installation go through it; a split or merge moves
// whole index entries instead (fillIndexes).
func (b *bucket) ingestPacked(s int, p tuple.Packed) {
	b.w[s].Append(p)
	for qi := range b.qs {
		if idx := b.qs[qi].idx; idx != nil {
			idx.add(p.Key, s, p.TS)
		}
	}
}

// fillIndexes loads each query's empty hash index with the entries of the
// same query's indexes in srcs whose keys keep passes (nil keeps all).
func (b *bucket) fillIndexes(keep func(key int32) bool, srcs ...*bucket) {
	var from [2]*hashIndex
	for qi := range b.qs {
		if idx := b.qs[qi].idx; idx != nil {
			for i, src := range srcs {
				from[i] = src.qs[qi].idx
			}
			idx.fill(keep, from[:len(srcs)]...)
		}
	}
}

// Group is one partition-group: the unit of load movement, holding a
// directory of fine-tuning buckets.
type Group struct {
	cfg *Config
	id  int32
	dir *exthash.Dir[*bucket]
}

func newGroup(cfg *Config, id int32) *Group {
	g := &Group{cfg: cfg, id: id, dir: exthash.New(newBucket(cfg.Queries))}
	g.dir.SetMaxDepth(cfg.MaxDepth)
	return g
}

// WindowBytes reports the group's combined window size.
func (g *Group) WindowBytes() int64 {
	var n int64
	g.dir.Buckets(func(_ uint32, _ uint, b *bucket) { n += b.bytes() })
	return n
}

// IndexBytes reports the group's prober-index footprint (see
// Module.IndexBytes).
func (g *Group) IndexBytes() int64 {
	var n int64
	g.dir.Buckets(func(_ uint32, _ uint, b *bucket) { n += b.indexBytes() })
	return n
}

// NumBuckets reports the number of fine-tuning buckets.
func (g *Group) NumBuckets() int { return g.dir.NumBuckets() }

// bucketFor routes a key to its fine-tuning bucket.
func (g *Group) bucketFor(key int32) *bucket {
	return g.dir.Lookup(tuple.FineHash(key))
}

func (g *Group) process(sc *roundScratch, nowMs int32, tuples []tuple.Tuple) []RoundResult {
	nq := len(g.cfg.Queries)
	for qi := range sc.qres {
		sc.qres[qi] = RoundResult{
			Query:   g.cfg.Queries[qi].ID,
			Pairs:   sc.pairs[qi][:0],
			Matches: sc.matches[qi][:0],
		}
	}

	// Partition the round's tuples by bucket, preserving timestamp order,
	// with deterministic first-seen bucket ordering. The partitioning state
	// is scratch reused across rounds: buckets stamped with the current
	// round number index straight into it, so there is no per-round map.
	sc.round++
	sc.perBucket = sc.perBucket[:0]
	for _, t := range tuples {
		b := g.bucketFor(t.Key)
		if b.scratchRound != sc.round {
			b.scratchRound = sc.round
			b.scratchIdx = sc.acquire(b)
		}
		pb := &sc.perBucket[b.scratchIdx]
		pb.f[t.Stream] = append(pb.f[t.Stream], t)
	}

	for i := range sc.perBucket {
		pb := &sc.perBucket[i]
		b := pb.b
		// fresh(S1) probes stored(S2): S2's fresh tuples are not ingested
		// yet, which is the paper's "omit the fresh tuples within the head
		// blocks of the opposite mini window-partitions". Every query probes
		// the same window content before the shared single ingest, so each
		// sees exactly what a single-query module would.
		for qi := 0; qi < nq; qi++ {
			g.probe(qi, b, &sc.qres[qi], pb.f[0], 1)
		}
		for _, t := range pb.f[0] {
			b.ingestPacked(int(t.Stream), t.Packed())
		}
		// fresh(S2) probes stored(S1) including the now-stale S1 tuples.
		for qi := 0; qi < nq; qi++ {
			g.probe(qi, b, &sc.qres[qi], pb.f[1], 0)
		}
		for _, t := range pb.f[1] {
			b.ingestPacked(int(t.Stream), t.Packed())
		}
		sc.qres[0].Ingested += len(pb.f[0]) + len(pb.f[1])
	}

	// Expire after probing (completeness rule), across all buckets. Shared
	// windows expire once; the hooks fan the drops out to every query's
	// auxiliary structures.
	cutoff := nowMs - g.cfg.WindowMs
	res0 := &sc.qres[0]
	g.dir.Buckets(func(_ uint32, _ uint, b *bucket) {
		for s := 0; s < 2; s++ {
			if g.cfg.Expiry == ExpiryExact {
				res0.Expired += b.w[s].ExpireExact(cutoff, b.onExp[s])
			} else {
				res0.Expired += b.w[s].ExpireBlocks(cutoff, b.onExp[s])
			}
		}
	})

	if g.cfg.FineTune {
		g.tune(res0)
	}
	sc.releaseBuckets()
	return sc.qres
}

// probe joins the fresh tuples against stream opp of bucket b for query qi.
func (g *Group) probe(qi int, b *bucket, res *RoundResult, fresh []tuple.Tuple, opp int) {
	for _, t := range fresh {
		g.probeOne(qi, b, res, t, opp)
	}
}

// probeOne joins one probe tuple against stream opp of bucket b for query
// qi, recording the match (and, for the scan and hash probers, the
// materialized pairs) in res. Scanned is charged with the tuples the probe
// actually visits: the whole opposite store for the nested-loop modes, only
// the matching slots for the hash index.
func (g *Group) probeOne(qi int, b *bucket, res *RoundResult, t tuple.Tuple, opp int) {
	qc := &g.cfg.Queries[qi]
	var n int64
	switch qc.Mode {
	case ModeIndexed:
		n = int64(len(b.qs[qi].idx.slots(t.Key, opp)))
		res.Scanned += int64(b.w[opp].Len())
	case ModeScan:
		key := t.Key
		if qc.CountOnly {
			b.w[opp].Chunks(func(chunk []tuple.Packed) {
				for _, p := range chunk {
					if p.Key == key {
						n++
					}
				}
			})
		} else {
			b.w[opp].Chunks(func(chunk []tuple.Packed) {
				for _, p := range chunk {
					if p.Key == key {
						n++
						res.Pairs = append(res.Pairs, Pair{Probe: t, Stored: p})
					}
				}
			})
		}
		res.Scanned += int64(b.w[opp].Len())
	case ModeHash:
		run := b.qs[qi].idx.slots(t.Key, opp)
		if !qc.CountOnly && len(run) > 0 {
			// The run is the key's whole live content, so the pairs are
			// written straight from it without touching the window store.
			base := len(res.Pairs)
			res.Pairs = slices.Grow(res.Pairs, len(run))[:base+len(run)]
			for i, ts := range run {
				res.Pairs[base+i] = Pair{Probe: t, Stored: tuple.Packed{Key: t.Key, TS: ts}}
			}
		}
		n = int64(len(run))
		res.Scanned += n
	}
	if n > 0 {
		res.Matches = append(res.Matches, Match{TS: t.TS, N: n})
		res.Outputs += n
	}
}

// tune enforces the [θ, 2θ] bucket size band via extendible hashing.
func (g *Group) tune(res *RoundResult) {
	theta := g.cfg.Theta
	// Split sweeps: attempt to split every oversize bucket; a sweep that
	// splits nothing terminates the loop (either all within band or splits
	// refused at max depth).
	for {
		var oversize []uint32
		g.dir.Buckets(func(bits uint32, _ uint, b *bucket) {
			if b.bytes() > 2*theta {
				oversize = append(oversize, bits)
			}
		})
		split := false
		for _, bits := range oversize {
			// The bucket may have been re-split already in this sweep;
			// re-check size through a fresh lookup.
			if g.dir.Lookup(uint64(bits)).bytes() <= 2*theta {
				continue
			}
			ok := g.dir.Split(uint64(bits), func(old *bucket, bit uint) (*bucket, *bucket) {
				kids := [2]*bucket{newBucket(g.cfg.Queries), newBucket(g.cfg.Queries)}
				side := func(key int32) int { return int(tuple.FineHash(key) >> bit & 1) }
				for s := 0; s < 2; s++ {
					old.w[s].Chunks(func(chunk []tuple.Packed) {
						for _, p := range chunk {
							kids[side(p.Key)].w[s].Append(p)
						}
					})
				}
				for k, kid := range kids {
					kid.fillIndexes(func(key int32) bool { return side(key) == k }, old)
				}
				res.SplitMoves += int64(old.w[0].Len() + old.w[1].Len())
				return kids[0], kids[1]
			})
			if ok {
				split = true
				res.Splits++
			}
		}
		if !split {
			break
		}
	}
	// Merge sweeps: merge undersize buckets with their buddies while the
	// combined size stays below 2θ (paper §IV-D).
	for {
		var undersize []uint32
		g.dir.Buckets(func(bits uint32, local uint, b *bucket) {
			if local > 0 && b.bytes() < theta {
				undersize = append(undersize, bits)
			}
		})
		merged := false
		for _, bits := range undersize {
			ok := g.dir.TryMergeBuddy(uint64(bits),
				func(a, b *bucket) bool { return a.bytes()+b.bytes() < 2*theta },
				func(zero, one *bucket) *bucket {
					nb := newBucket(g.cfg.Queries)
					nb.w[0] = window.MergeStores(zero.w[0], one.w[0])
					nb.w[1] = window.MergeStores(zero.w[1], one.w[1])
					nb.fillIndexes(nil, zero, one) // buddies hold disjoint keys
					res.SplitMoves += int64(nb.w[0].Len() + nb.w[1].Len())
					return nb
				})
			if ok {
				merged = true
				res.Merges++
			}
		}
		if !merged {
			break
		}
	}
}
