package join

import (
	"fmt"

	"streamjoin/internal/tuple"
)

// hashIndex is the hash prober's per-bucket key→timestamps index over both
// streams: one compact open-addressing table whose entries are (key,
// stream) pairs, each holding the run of that key's live tuple timestamps
// in that stream's store, in append order. A stored tuple is exactly its
// key and its timestamp, so a run is the key's whole live content in one
// stream: a probe emits its pairs from the run alone and never reads the
// window store.
//
// An entry is homed by its key alone, so a key's two entries — one per
// stream — share a probe cluster and almost always a cache line: the probe
// of the opposite stream loads the line that the append to the tuple's own
// stream then writes. A run of capacity 1 keeps its one timestamp in the
// entry itself; a second append promotes it to a run in a shared []int32
// arena, growing by power-of-two run classes from there. Most keys of a
// large domain hold a single tuple, so most appends and probes touch the
// table and nothing else.
//
// A map of slices would allocate a slice header per live key and churn
// those headers on every ingest and expiry. Here a probe is one linear-probe
// lookup plus a contiguous read of the key's run, ingestion appends into the
// run in place, and expiry advances the run's start — stores expire strictly
// oldest-first, so the expiring tuple is always the head of its key's run.
// Freed arena runs are recycled through per-class intrusive free lists
// threaded through the arena itself, so steady-state rounds allocate
// nothing, and the structure's footprint is exactly the table plus the
// arena — which is what footprint reports, making Module.IndexBytes exact
// instead of estimated.
type hashIndex struct {
	entries []idxEntry // open-addressing table, power-of-two length
	keys    [2]int     // live entries per stream (distinct live keys)
	arena   []int32    // timestamp runs; freed runs double as free-list links
	// freeHead[c] heads the free list of runs with capacity 1<<c; the first
	// slot of a freed run holds the offset of the next free run (-1 ends).
	freeHead [maxRunClass + 1]int32
}

// idxEntry is one table entry: a key, one stream's run of its timestamps,
// and the run's shape. For class 0 the run is inline: off[0] is the one
// timestamp. For class c ≥ 1 the run has capacity 1<<c in the arena and its
// live slots are arena[off[0]+start : off[0]+start+n]. n doubles as the
// occupancy marker (n == 0 ⇒ empty entry): an entry whose last slot expires
// leaves the table.
type idxEntry struct {
	key  int32
	off  [1]int32 // arena offset of the run, or the timestamp of an inline run
	n    int32    // live slots
	meta uint32   // start<<metaStartShift | stream<<metaStreamShift | class
}

const (
	// idxEntryBytes is the exact size of an idxEntry (four 32-bit fields).
	idxEntryBytes = 16
	// idxSlotBytes is the size of one arena slot (an int32 timestamp).
	idxSlotBytes = 4
	// minTableSize is the initial table length (power of two).
	minTableSize = 8

	metaClassMask   = 1<<5 - 1
	metaStreamShift = 5
	metaStreamBit   = 1 << metaStreamShift
	metaStartShift  = 6
	// maxRunClass is the largest run class whose dead prefix fits the 26
	// bits meta has for start: a run of 1<<26 slots starts at most 1<<26−1
	// slots in.
	maxRunClass = 32 - metaStartShift
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

func (e *idxEntry) class() int   { return int(e.meta & metaClassMask) }
func (e *idxEntry) stream() int  { return int(e.meta>>metaStreamShift) & 1 }
func (e *idxEntry) start() int32 { return int32(e.meta >> metaStartShift) }

// setRun records the run's shape, keeping the entry's stream bit.
func (e *idxEntry) setRun(start int32, class int) {
	e.meta = uint32(start)<<metaStartShift | e.meta&metaStreamBit | uint32(class)
}

// run returns the entry's live timestamps (aliasing the entry or the arena).
func (h *hashIndex) run(e *idxEntry) []int32 {
	if e.class() == 0 {
		return e.off[:]
	}
	lo := e.off[0] + e.start()
	return h.arena[lo : lo+e.n]
}

// find returns the table index of key's entry for stream s, or -1.
func (h *hashIndex) find(key int32, s int) int {
	if len(h.entries) == 0 {
		return -1
	}
	sbit := uint32(s) << metaStreamShift
	mask := len(h.entries) - 1
	i := int(idxHash(key)) & mask
	for {
		e := &h.entries[i]
		if e.n == 0 {
			return -1
		}
		if e.key == key && e.meta&metaStreamBit == sbit {
			return i
		}
		i = (i + 1) & mask
	}
}

// slots returns the timestamps of key's live tuples in stream s, in append
// order (aliasing the table or the arena; valid until the next mutation),
// or nil.
func (h *hashIndex) slots(key int32, s int) []int32 {
	i := h.find(key, s)
	if i < 0 {
		return nil
	}
	return h.run(&h.entries[i])
}

// add records a tuple appended to stream s's store with the given key and
// timestamp. Tuples must be added in the store's append order.
func (h *hashIndex) add(key int32, s int, ts int32) {
	if len(h.entries) == 0 {
		h.entries = make([]idxEntry, minTableSize)
	}
	sbit := uint32(s) << metaStreamShift
	mask := len(h.entries) - 1
	i := int(idxHash(key)) & mask
	for {
		e := &h.entries[i]
		if e.n == 0 {
			// New (key, stream). Grow ahead of the insert so the load factor
			// stays below 3/4 and probing never wraps a full table;
			// appends to a live run (the branch below) never pay this check.
			// After a rehash the resized table is well under the threshold,
			// so the re-probe recursion terminates immediately.
			if (h.keys[0]+h.keys[1]+1)*4 > len(h.entries)*3 {
				h.rehash(len(h.entries) * 2)
				h.add(key, s, ts)
				return
			}
			*e = idxEntry{key: key, off: [1]int32{ts}, n: 1, meta: sbit}
			h.keys[s]++
			return
		}
		if e.key == key && e.meta&metaStreamBit == sbit {
			h.appendSlot(e, ts)
			return
		}
		i = (i + 1) & mask
	}
}

// appendSlot pushes ts onto e's run. A full run compacts its dead prefix in
// place when at least half of it has expired, and otherwise migrates to a
// run of the next class — an inline run to the arena's class 1.
func (h *hashIndex) appendSlot(e *idxEntry, ts int32) {
	c := e.class()
	start, capacity := e.start(), int32(1)<<c
	if start+e.n == capacity {
		if c > 0 && start >= capacity/2 {
			off := e.off[0]
			copy(h.arena[off:], h.arena[off+start:off+start+e.n])
			start = 0
		} else {
			if c == maxRunClass {
				panic(fmt.Sprintf("join: hash index run of key %d outgrows %d slots", e.key, capacity))
			}
			noff := h.allocRun(c + 1)
			copy(h.arena[noff:noff+e.n], h.run(e))
			if c > 0 {
				h.freeRun(e.off[0], c)
			}
			e.off[0], start, c = noff, 0, c+1
		}
	}
	h.arena[e.off[0]+start+e.n] = ts
	e.n++
	e.setRun(start, c)
}

// removeOldest drops the oldest live slot of key in stream s (stores expire
// strictly oldest-first, so expiry always removes the head of the run). An
// entry whose last slot expires leaves the table; an arena run joins its
// free list.
func (h *hashIndex) removeOldest(key int32, s int) {
	i := h.find(key, s)
	if i < 0 {
		panic(fmt.Sprintf("join: hash index has no stream-%d slots for expiring key %d", s, key))
	}
	e := &h.entries[i]
	if e.n > 1 {
		e.n--
		e.setRun(e.start()+1, e.class())
		return
	}
	if c := e.class(); c > 0 {
		h.freeRun(e.off[0], c)
	}
	h.deleteAt(i)
	h.keys[s]--
	live := h.keys[0] + h.keys[1]
	switch {
	case live == 0:
		// A fully drained index releases everything, so an idle bucket's
		// accounted footprint really is zero.
		h.release()
	case len(h.entries) > minTableSize && live*8 < len(h.entries):
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
			if e.n == 0 {
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
// live entry; runs stay where they are (in their entries or the arena).
func (h *hashIndex) rehash(newSize int) {
	old := h.entries
	h.entries = make([]idxEntry, newSize)
	mask := newSize - 1
	for _, e := range old {
		if e.n == 0 {
			continue
		}
		i := int(idxHash(e.key)) & mask
		for h.entries[i].n != 0 {
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

// freeRun pushes an arena run onto its class's free list, reusing the run's
// first slot as the link.
func (h *hashIndex) freeRun(off int32, class int) {
	h.arena[off] = h.freeHead[class]
	h.freeHead[class] = off
}

// release drops the table and arena (the index is empty).
func (h *hashIndex) release() {
	h.entries, h.arena, h.keys = nil, nil, [2]int{}
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

// liveSlots counts stream s's live slots across all keys (must equal that
// window store's live length; used by accounting invariants and tests).
func (h *hashIndex) liveSlots(s int) int {
	n := 0
	for i := range h.entries {
		if e := &h.entries[i]; e.n > 0 && e.stream() == s {
			n += int(e.n)
		}
	}
	return n
}

// liveKeys reports the number of distinct live keys in stream s.
func (h *hashIndex) liveKeys(s int) int { return h.keys[s] }
