// Package collect implements the downstream pair consumer: it decodes the
// wire.PairBatch streams that live slaves ship over their SocketSink
// connections and maintains per-group and per-slave output tallies. The
// cmd/sjoin-collect binary wraps it behind a TCP listener; tests drive it
// directly to assert delivery (TestSocketSinkEquivalence uses the same
// decode path the binary runs).
package collect

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"streamjoin/internal/wire"
)

// Tally accumulates pair-batch deliveries across any number of producer
// connections. All methods are safe for concurrent use.
type Tally struct {
	mu       sync.Mutex
	pairs    int64
	batches  int64
	bytes    int64
	perGroup map[int32]int64
	perSlave map[int32]int64
	perQuery map[int32]int64
	lastSeq  map[uint64]int64
	seqDups  int64
	onBatch  func(*wire.PairBatch)
}

// New returns an empty tally. onBatch, when non-nil, observes every decoded
// batch (called serially under the tally's lock, so observers need no
// locking of their own; keep it cheap — it sits on the receive path).
func New(onBatch func(*wire.PairBatch)) *Tally {
	return &Tally{
		perGroup: make(map[int32]int64),
		perSlave: make(map[int32]int64),
		perQuery: make(map[int32]int64),
		lastSeq:  make(map[uint64]int64),
		onBatch:  onBatch,
	}
}

// Consume decodes one producer connection until EOF, folding every
// PairBatch into the tally. Any other message kind on the stream is a
// protocol error. A clean EOF (the producer closed after flushing) returns
// nil.
func (t *Tally) Consume(r io.Reader) error {
	fr := wire.NewFrameReader(r)
	var lastBytes int64
	for {
		m, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("collect: %w", err)
		}
		pb, ok := m.(*wire.PairBatch)
		if !ok {
			return fmt.Errorf("collect: unexpected %v message", m.Kind())
		}
		_, _, bytes := fr.Stats()
		t.fold(pb, bytes-lastBytes)
		lastBytes = bytes
	}
}

func (t *Tally) fold(pb *wire.PairBatch, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pairs += int64(len(pb.Pairs))
	t.batches++
	t.bytes += bytes
	t.perGroup[pb.Group] += int64(len(pb.Pairs))
	t.perSlave[pb.Slave] += int64(len(pb.Pairs))
	t.perQuery[pb.Query] += int64(len(pb.Pairs))
	// Emission-sequence check: the producing sink stamps a strictly
	// increasing sequence number into Epoch, so within one (slave, group)
	// stream a regression means a replayed batch (equal values are fine — a
	// large emission splits into chunks sharing one number). On an elastic
	// cluster this flags re-delivery after membership churn; a slave id
	// reused after an eviction restarts its sequence and is surfaced the
	// same way. The main tallies still include the batch — SeqDups is the
	// operator's dedup signal, not a filter.
	key := uint64(uint32(pb.Slave))<<32 | uint64(uint32(pb.Group))
	if last, ok := t.lastSeq[key]; ok && pb.Epoch < last {
		t.seqDups++
	} else {
		t.lastSeq[key] = pb.Epoch
	}
	if t.onBatch != nil {
		t.onBatch(pb)
	}
}

// Summary is a point-in-time snapshot of the tally, shaped for the JSON
// report sjoin-collect emits (map keys are strings for JSON).
type Summary struct {
	Pairs       int64            `json:"pairs"`
	Batches     int64            `json:"batches"`
	Bytes       int64            `json:"bytes"`
	Seconds     float64          `json:"seconds"`
	PairsPerSec float64          `json:"pairs_per_sec"`
	Groups      map[string]int64 `json:"groups"`
	Slaves      map[string]int64 `json:"slaves"`
	// Queries splits the pair count by producing query id (single-query
	// producers tally everything under "0").
	Queries map[string]int64 `json:"queries"`
	// SeqDups counts batches whose emission sequence regressed within a
	// (slave, group) stream — replayed output an operator should subtract
	// (or investigate) rather than double-count. Zero on a healthy run.
	SeqDups int64 `json:"seq_dups"`
}

// Snapshot copies the tally into a Summary, deriving the receive rate over
// elapsed (zero elapsed reports a zero rate).
func (t *Tally) Snapshot(elapsed time.Duration) Summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Summary{
		Pairs:   t.pairs,
		Batches: t.batches,
		Bytes:   t.bytes,
		Seconds: elapsed.Seconds(),
		Groups:  make(map[string]int64, len(t.perGroup)),
		Slaves:  make(map[string]int64, len(t.perSlave)),
		Queries: make(map[string]int64, len(t.perQuery)),
		SeqDups: t.seqDups,
	}
	if s.Seconds > 0 {
		s.PairsPerSec = float64(t.pairs) / s.Seconds
	}
	for g, n := range t.perGroup {
		s.Groups[strconv.Itoa(int(g))] = n
	}
	for sl, n := range t.perSlave {
		s.Slaves[strconv.Itoa(int(sl))] = n
	}
	for q, n := range t.perQuery {
		s.Queries[strconv.Itoa(int(q))] = n
	}
	return s
}

// PerGroup copies the per-group pair counts keyed by group ID.
func (t *Tally) PerGroup() map[int32]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int32]int64, len(t.perGroup))
	for g, n := range t.perGroup {
		out[g] = n
	}
	return out
}

// SeqDups reports the number of batches whose emission sequence regressed
// (see Summary.SeqDups).
func (t *Tally) SeqDups() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seqDups
}

// Pairs reports the total pairs received.
func (t *Tally) Pairs() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pairs
}

// GroupLine renders the per-group counts of s as a compact one-line report
// in ascending group order (the binary's periodic progress output).
func (s Summary) GroupLine() string {
	ids := make([]int, 0, len(s.Groups))
	for k := range s.Groups {
		id, err := strconv.Atoi(k)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("g%d=%d", id, s.Groups[strconv.Itoa(id)])
	}
	return out
}
