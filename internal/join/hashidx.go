package join

import (
	"fmt"
	"math/bits"

	"streamjoin/internal/tuple"
)

// hashIndex is the hash prober's per-bucket, per-stream key→timestamps
// index: a compact open-addressing table over int32 join keys whose values
// are runs of the key's live tuple timestamps, in append order, stored in
// one shared []int32 arena. A stored tuple is exactly its key and its
// timestamp, so a run is the key's whole live content: a probe emits its
// pairs from the run alone and never reads the window store.
//
// A map of slices would allocate a slice header per live key and churn
// those headers on every ingest and expiry. Here a probe is one linear-probe
// lookup plus a contiguous read of the key's run, ingestion appends into the
// run in place (growing it by power-of-two run classes), and expiry advances
// the run's start — stores expire strictly oldest-first, so the expiring
// tuple is always the head of its key's run. Freed runs are recycled through
// per-class intrusive free lists threaded through the arena itself, so
// steady-state rounds allocate nothing, and the structure's footprint is
// exactly the table plus the arena — which is what footprint reports, making
// Module.IndexBytes exact instead of estimated.
type hashIndex struct {
	entries []idxEntry // open-addressing table, power-of-two length
	keys    int        // live keys (occupied table entries)
	arena   []int32    // timestamp runs; freed runs double as free-list links
	// freeHead[c] heads the free list of runs with capacity 1<<c; the first
	// slot of a freed run holds the offset of the next free run (-1 ends).
	freeHead [numRunClasses]int32
}

// idxEntry is one table entry: a key and its timestamp run in the arena. The
// live slots are arena[off+start : off+start+n]; cap is the run's capacity
// (a power of two) and doubles as the occupancy marker (cap == 0 ⇒ empty).
type idxEntry struct {
	key   int32
	off   int32 // arena offset of the run
	start int32 // dead prefix length (slots already expired)
	n     int32 // live slots
	cap   int32 // run capacity; 0 marks an empty table entry
}

const (
	// idxEntryBytes is the exact size of an idxEntry (five int32 fields).
	idxEntryBytes = 20
	// idxSlotBytes is the size of one arena slot (an int32 timestamp).
	idxSlotBytes = 4
	// minTableSize is the initial table length (power of two).
	minTableSize = 8
	// numRunClasses bounds run capacities at 1<<30 slots.
	numRunClasses = 31
)

func newHashIndex() *hashIndex {
	h := &hashIndex{}
	for i := range h.freeHead {
		h.freeHead[i] = -1
	}
	return h
}

// idxHash spreads a join key over the table. FineHash is not reused so the
// bits consumed by bucket routing stay independent of in-bucket probing.
func idxHash(key int32) uint64 { return tuple.Mix64(uint64(uint32(key))) }

// runClass returns the free-list class of a run capacity (log2).
func runClass(cap int32) int { return bits.TrailingZeros32(uint32(cap)) }

// find returns the table index of key, or -1.
func (h *hashIndex) find(key int32) int {
	if len(h.entries) == 0 {
		return -1
	}
	mask := len(h.entries) - 1
	i := int(idxHash(key)) & mask
	for {
		e := &h.entries[i]
		if e.cap == 0 {
			return -1
		}
		if e.key == key {
			return i
		}
		i = (i + 1) & mask
	}
}

// slots returns the timestamps of key's live tuples in append order
// (aliasing the arena; valid until the next mutation), or nil.
func (h *hashIndex) slots(key int32) []int32 {
	i := h.find(key)
	if i < 0 {
		return nil
	}
	e := &h.entries[i]
	return h.arena[e.off+e.start : e.off+e.start+e.n]
}

// add records a tuple appended to the store with the given key and
// timestamp. Tuples must be added in the store's append order.
func (h *hashIndex) add(key, ts int32) {
	if len(h.entries) == 0 {
		h.entries = make([]idxEntry, minTableSize)
	}
	mask := len(h.entries) - 1
	i := int(idxHash(key)) & mask
	for {
		e := &h.entries[i]
		if e.cap == 0 {
			// New key. Grow ahead of the insert so the load factor stays
			// below 3/4 and probing never wraps a full table; duplicate-slot
			// appends (the branch below) never pay this check. After a
			// rehash the resized table is well under the threshold, so the
			// re-probe recursion terminates immediately.
			if (h.keys+1)*4 > len(h.entries)*3 {
				h.rehash(len(h.entries) * 2)
				h.add(key, ts)
				return
			}
			off := h.allocRun(0)
			h.arena[off] = ts
			*e = idxEntry{key: key, off: off, n: 1, cap: 1}
			h.keys++
			return
		}
		if e.key == key {
			h.appendSlot(e, ts)
			return
		}
		i = (i + 1) & mask
	}
}

// appendSlot pushes ts onto e's run, compacting the dead prefix in place
// when at least half the run has expired, or migrating to a run of the next
// capacity class otherwise.
func (h *hashIndex) appendSlot(e *idxEntry, ts int32) {
	if e.start+e.n == e.cap {
		if e.start >= e.cap/2 && e.cap > 1 {
			copy(h.arena[e.off:], h.arena[e.off+e.start:e.off+e.start+e.n])
			e.start = 0
		} else {
			c := runClass(e.cap)
			noff := h.allocRun(c + 1)
			copy(h.arena[noff:noff+e.n], h.arena[e.off+e.start:e.off+e.start+e.n])
			h.freeRun(e.off, c)
			e.off, e.start, e.cap = noff, 0, e.cap*2
		}
	}
	h.arena[e.off+e.start+e.n] = ts
	e.n++
}

// removeOldest drops the oldest live slot of key (stores expire strictly
// oldest-first, so expiry always removes the head of the run). A key whose
// last slot expires leaves the table; its run joins the free list.
func (h *hashIndex) removeOldest(key int32) {
	i := h.find(key)
	if i < 0 {
		panic(fmt.Sprintf("join: hash index has no slots for expiring key %d", key))
	}
	e := &h.entries[i]
	e.start++
	e.n--
	if e.n > 0 {
		return
	}
	h.freeRun(e.off, runClass(e.cap))
	h.deleteAt(i)
	h.keys--
	switch {
	case h.keys == 0:
		// A fully drained index releases everything, so an idle bucket's
		// accounted footprint really is zero.
		h.release()
	case len(h.entries) > minTableSize && h.keys*8 < len(h.entries):
		h.rehash(len(h.entries) / 2)
	}
}

// deleteAt empties table index i, back-shifting displaced entries of the
// probe cluster so lookups never need tombstones.
func (h *hashIndex) deleteAt(i int) {
	mask := len(h.entries) - 1
	for {
		h.entries[i] = idxEntry{}
		j := i
		for {
			j = (j + 1) & mask
			e := h.entries[j]
			if e.cap == 0 {
				return
			}
			k := int(idxHash(e.key)) & mask
			// Move e into the hole iff the hole lies cyclically within
			// [home, current slot); otherwise e is already reachable.
			var between bool
			if k <= j {
				between = k <= i && i < j
			} else {
				between = k <= i || i < j
			}
			if between {
				h.entries[i] = e
				i = j
				break
			}
		}
	}
}

// rehash resizes the table to newSize (a power of two), reinserting every
// live entry; runs stay where they are in the arena.
func (h *hashIndex) rehash(newSize int) {
	old := h.entries
	h.entries = make([]idxEntry, newSize)
	mask := newSize - 1
	for _, e := range old {
		if e.cap == 0 {
			continue
		}
		i := int(idxHash(e.key)) & mask
		for h.entries[i].cap != 0 {
			i = (i + 1) & mask
		}
		h.entries[i] = e
	}
}

// allocRun returns the arena offset of a run with capacity 1<<class,
// recycling a freed run of that class when one is available.
func (h *hashIndex) allocRun(class int) int32 {
	if head := h.freeHead[class]; head >= 0 {
		h.freeHead[class] = h.arena[head]
		return head
	}
	need := len(h.arena) + (1 << class)
	if need > cap(h.arena) {
		c := 2 * cap(h.arena)
		if c < need {
			c = need
		}
		if c < 64 {
			c = 64
		}
		na := make([]int32, len(h.arena), c)
		copy(na, h.arena)
		h.arena = na
	}
	off := int32(len(h.arena))
	h.arena = h.arena[:need]
	return off
}

// freeRun pushes a run onto its class's free list, reusing the run's first
// slot as the link.
func (h *hashIndex) freeRun(off int32, class int) {
	h.arena[off] = h.freeHead[class]
	h.freeHead[class] = off
}

// release drops the table and arena (the index is empty).
func (h *hashIndex) release() {
	h.entries, h.arena, h.keys = nil, nil, 0
	for i := range h.freeHead {
		h.freeHead[i] = -1
	}
}

// footprint is the exact in-memory size of the index: the table plus the
// whole arena (live runs, dead prefixes, and free runs alike — all of it is
// resident memory).
func (h *hashIndex) footprint() int64 {
	return int64(len(h.entries))*idxEntryBytes + int64(cap(h.arena))*idxSlotBytes
}

// liveSlots counts the live slots across all keys (must equal the window
// store's live length; used by accounting invariants and tests).
func (h *hashIndex) liveSlots() int {
	n := 0
	for i := range h.entries {
		n += int(h.entries[i].n)
	}
	return n
}

// liveKeys reports the number of distinct live keys.
func (h *hashIndex) liveKeys() int { return h.keys }
