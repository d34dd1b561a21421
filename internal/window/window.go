// Package window implements the temporally-ordered windowed store that backs
// each fine-tuning bucket of a partition-group: a list of 4 KB blocks of
// 64-byte tuples, appended at the head and expired from the tail.
//
// Tuples are kept strictly in arrival order — the property that (as §IV-D
// argues) rules out sort-based join algorithms but makes expiration a cheap
// prefix trim. Two expiry policies are provided: ExpireBlocks drops only
// whole blocks whose newest tuple has left the window (the paper's policy,
// used by the live engine) and ExpireExact trims to the exact cutoff (used
// by the simulation, where byte-precise window accounting matters).
//
// Positions for "fresh tuple" tracking are absolute append sequence numbers,
// which stay valid across expiry: live tuples always form the contiguous
// sequence range [Expired(), Appended()).
//
// # Allocation discipline
//
// The store is built for an allocation-free steady state: expired block
// buffers are recycled into a small free list that Append draws from, the
// block directory is compacted in place instead of re-sliced, and iteration
// is chunked (Chunks, FromSeqChunks, and the chunk-slice expiry callbacks)
// so hot loops run over contiguous []tuple.Packed runs instead of paying a
// function call per tuple.
package window

import (
	"fmt"

	"streamjoin/internal/tuple"
)

// maxFreeBlocks bounds the per-store recycled-block list. Steady-state round
// processing drops and refills at most a few blocks per round; the cap keeps
// a store that shrank for good from pinning its peak footprint forever.
const maxFreeBlocks = 32

// Store is one stream's window content within a fine-tuning bucket.
type Store struct {
	blocks   [][]tuple.Packed
	start    int              // live offset into blocks[0]
	appended int64            // tuples ever appended
	expired  int64            // tuples ever expired
	free     [][]tuple.Packed // recycled block buffers (len 0, full capacity)
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Len reports the number of live tuples.
func (s *Store) Len() int { return int(s.appended - s.expired) }

// Bytes reports the logical size of the live window content.
func (s *Store) Bytes() int64 { return int64(s.Len()) * tuple.LogicalSize }

// Blocks reports the number of blocks held (including a partial head block).
func (s *Store) Blocks() int { return len(s.blocks) }

// Appended returns the append sequence number of the next tuple; it is the
// Mark used for fresh-tuple tracking.
func (s *Store) Appended() int64 { return s.appended }

// Expired returns the number of tuples expired so far.
func (s *Store) Expired() int64 { return s.expired }

// newBlock returns an empty block buffer, recycled when one is available.
func (s *Store) newBlock() []tuple.Packed {
	if n := len(s.free); n > 0 {
		blk := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return blk
	}
	return make([]tuple.Packed, 0, tuple.TuplesPerBlock)
}

// dropBlock retires the oldest block: its buffer joins the free list and the
// block directory is compacted in place (keeping its backing array, so the
// next Append reuses the tail slot instead of reallocating the directory).
func (s *Store) dropBlock() {
	blk := s.blocks[0]
	if len(s.free) < maxFreeBlocks {
		s.free = append(s.free, blk[:0])
	}
	n := copy(s.blocks, s.blocks[1:])
	s.blocks[n] = nil
	s.blocks = s.blocks[:n]
	s.start = 0
}

// push appends p without the order check: internal callers (Append after its
// check, MergeStores rebuilding from already-ordered input) guarantee
// non-decreasing timestamps.
func (s *Store) push(p tuple.Packed) {
	n := len(s.blocks)
	if n == 0 || len(s.blocks[n-1]) == tuple.TuplesPerBlock {
		s.blocks = append(s.blocks, s.newBlock())
		n++
	}
	s.blocks[n-1] = append(s.blocks[n-1], p)
	s.appended++
}

// Append adds p at the head of the window. Tuples must arrive in
// non-decreasing timestamp order; Append panics otherwise, because every
// correctness property of expiry depends on it.
func (s *Store) Append(p tuple.Packed) {
	if n := len(s.blocks); n > 0 {
		last := s.blocks[n-1]
		if len(last) > 0 && last[len(last)-1].TS > p.TS {
			panic(fmt.Sprintf("window: append out of order: %d after %d",
				p.TS, last[len(last)-1].TS))
		}
	}
	s.push(p)
}

// Chunks calls fn for every contiguous run of live tuples in temporal order.
// It is the bulk form of All: hot loops (probe scans, split relocation,
// index rebuilds) iterate the run with an inner range loop instead of paying
// a function call per tuple. The slices alias the store's blocks and are
// only valid during the call.
func (s *Store) Chunks(fn func([]tuple.Packed)) {
	for i, blk := range s.blocks {
		if i == 0 {
			blk = blk[s.start:]
		}
		if len(blk) > 0 {
			fn(blk)
		}
	}
}

// All calls fn for every live tuple in temporal order.
func (s *Store) All(fn func(tuple.Packed)) {
	s.Chunks(func(chunk []tuple.Packed) {
		for _, p := range chunk {
			fn(p)
		}
	})
}

// FromSeqChunks calls fn for every contiguous run of live tuples with append
// sequence ≥ seq, in temporal order (the chunked form of FromSeq; the same
// aliasing rules as Chunks apply).
func (s *Store) FromSeqChunks(seq int64, fn func([]tuple.Packed)) {
	if seq < s.expired {
		seq = s.expired
	}
	skip := seq - s.expired
	for i, blk := range s.blocks {
		ts := blk
		if i == 0 {
			ts = blk[s.start:]
		}
		if skip >= int64(len(ts)) {
			skip -= int64(len(ts))
			continue
		}
		if len(ts[skip:]) > 0 {
			fn(ts[skip:])
		}
		skip = 0
	}
}

// FromSeq calls fn for every live tuple with append sequence ≥ seq, in
// temporal order.
func (s *Store) FromSeq(seq int64, fn func(tuple.Packed)) {
	s.FromSeqChunks(seq, func(chunk []tuple.Packed) {
		for _, p := range chunk {
			fn(p)
		}
	})
}

// Snapshot returns the live tuples in temporal order (state movement).
func (s *Store) Snapshot() []tuple.Packed {
	out := make([]tuple.Packed, 0, s.Len())
	s.Chunks(func(chunk []tuple.Packed) { out = append(out, chunk...) })
	return out
}

// ExpireExact removes every live tuple with TS < cutoff, invoking fn (if
// non-nil) per removed contiguous run, and returns the number removed. The
// chunk passed to fn aliases the store and is only valid during the call.
func (s *Store) ExpireExact(cutoff int32, fn func([]tuple.Packed)) int {
	removed := 0
	for len(s.blocks) > 0 {
		live := s.blocks[0][s.start:]
		if len(live) == 0 {
			s.dropBlock()
			continue
		}
		if live[len(live)-1].TS < cutoff {
			// Whole block expired.
			if fn != nil {
				fn(live)
			}
			removed += len(live)
			s.dropBlock()
			continue
		}
		// Partial: advance start within the block.
		k := 0
		for k < len(live) && live[k].TS < cutoff {
			k++
		}
		if k > 0 {
			if fn != nil {
				fn(live[:k])
			}
			s.start += k
			removed += k
		}
		break
	}
	if len(s.blocks) == 0 {
		s.start = 0
	}
	s.expired += int64(removed)
	return removed
}

// ExpireBlocks removes only whole blocks whose newest tuple has TS < cutoff
// — the paper's block-granularity expiration. The (possibly partial) newest
// block is never removed. fn, if non-nil, is invoked per removed run, with
// the same aliasing rules as ExpireExact.
func (s *Store) ExpireBlocks(cutoff int32, fn func([]tuple.Packed)) int {
	removed := 0
	for len(s.blocks) > 1 || (len(s.blocks) == 1 && len(s.blocks[0]) == tuple.TuplesPerBlock) {
		live := s.blocks[0][s.start:]
		if len(live) > 0 && live[len(live)-1].TS >= cutoff {
			break
		}
		if len(live) > 0 && fn != nil {
			fn(live)
		}
		removed += len(live)
		s.dropBlock()
	}
	if len(s.blocks) == 0 {
		s.start = 0
	}
	s.expired += int64(removed)
	return removed
}

// OldestTS returns the timestamp of the oldest live tuple, or ok=false when
// the store is empty.
func (s *Store) OldestTS() (int32, bool) {
	for i, blk := range s.blocks {
		ts := blk
		if i == 0 {
			ts = blk[s.start:]
		}
		if len(ts) > 0 {
			return ts[0].TS, true
		}
	}
	return 0, false
}

// NewestTS returns the timestamp of the newest live tuple, or ok=false when
// the store is empty.
func (s *Store) NewestTS() (int32, bool) {
	for i := len(s.blocks) - 1; i >= 0; i-- {
		blk := s.blocks[i]
		lo := 0
		if i == 0 {
			lo = s.start
		}
		if len(blk) > lo {
			return blk[len(blk)-1].TS, true
		}
	}
	return 0, false
}

// cursor walks a store's live tuples without copying them.
type cursor struct {
	s   *Store
	blk int
	off int
}

func (c *cursor) init(s *Store) { c.s, c.blk, c.off = s, 0, s.start }

func (c *cursor) next() (tuple.Packed, bool) {
	for c.blk < len(c.s.blocks) {
		blk := c.s.blocks[c.blk]
		if c.off < len(blk) {
			p := blk[c.off]
			c.off++
			return p, true
		}
		c.blk++
		c.off = 0
	}
	return tuple.Packed{}, false
}

// MergeStores builds a new store holding the live tuples of a and b merged
// in timestamp order (buddy-bucket merging during fine tuning). The merge
// streams straight from the source blocks — no intermediate snapshot copy —
// and appends through the unchecked path, since merging two ordered stores
// by timestamp is ordered by construction.
func MergeStores(a, b *Store) *Store {
	out := NewStore()
	var ca, cb cursor
	ca.init(a)
	cb.init(b)
	pa, okA := ca.next()
	pb, okB := cb.next()
	for okA && okB {
		if pa.TS <= pb.TS {
			out.push(pa)
			pa, okA = ca.next()
		} else {
			out.push(pb)
			pb, okB = cb.next()
		}
	}
	for okA {
		out.push(pa)
		pa, okA = ca.next()
	}
	for okB {
		out.push(pb)
		pb, okB = cb.next()
	}
	return out
}
