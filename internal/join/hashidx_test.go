package join

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"streamjoin/internal/tuple"
)

// TestHashIndexMatchesMapReference drives the index and a map-of-slices
// model through identical seeded add/expire sequences over both streams and
// checks every (key, stream) run after each operation. Expiry is
// oldest-first within each stream, mirroring how window stores expire.
// Timestamps are non-decreasing with frequent repeats, as in a round whose
// tuples share a millisecond, so a run may hold equal neighbours. A small
// domain keeps most keys live in both streams at once, so their two entries
// share probe clusters and back-shift deletion moves entries of either
// stream.
func TestHashIndexMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		h := newHashIndex()
		ref := make(map[[2]int32][]int32)
		var order [2][]int32 // each stream's keys in append (= expiry) order
		const domain = 60
		ts := int32(0)
		for op := 0; op < 3000; op++ {
			s := r.Intn(2)
			if r.Intn(3) < 2 || len(order[s]) == 0 {
				key := r.Int31n(domain)
				ts += r.Int31n(2)
				h.add(key, s, ts)
				ref[[2]int32{key, int32(s)}] = append(ref[[2]int32{key, int32(s)}], ts)
				order[s] = append(order[s], key)
			} else {
				key := order[s][0]
				order[s] = order[s][1:]
				h.removeOldest(key, s)
				if rk := [2]int32{key, int32(s)}; len(ref[rk]) > 1 {
					ref[rk] = ref[rk][1:]
				} else {
					delete(ref, rk)
				}
			}
			for s := 0; s < 2; s++ {
				keys := 0
				for rk := range ref {
					if rk[1] == int32(s) {
						keys++
					}
				}
				if h.liveKeys(s) != keys || h.liveSlots(s) != len(order[s]) {
					t.Fatalf("seed %d op %d stream %d: %d keys / %d slots, model %d / %d",
						seed, op, s, h.liveKeys(s), h.liveSlots(s), keys, len(order[s]))
				}
			}
			// Spot-check a few runs every operation, all of them occasionally.
			check := func(key int32, s int) {
				if got, want := h.slots(key, s), ref[[2]int32{key, int32(s)}]; !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: key %d stream %d run %v, model %v", seed, op, key, s, got, want)
				}
			}
			if op%97 == 0 {
				for key := int32(0); key < domain; key++ {
					check(key, 0)
					check(key, 1)
				}
			} else {
				check(r.Int31n(domain), r.Intn(2))
			}
		}
	}
}

// TestHashIndexKeyInBothStreams checks that a key live in both streams holds
// one entry per stream, and that expiring one stream's last slot removes
// only that stream's entry: the other stream's run stays intact and
// findable, even when the deletion back-shifts entries of its cluster.
func TestHashIndexKeyInBothStreams(t *testing.T) {
	h := newHashIndex()
	// Neighbours keep the table from draining and crowd the clusters.
	for k := int32(100); k < 140; k++ {
		h.add(k, int(k)%2, k)
	}
	const key = 7
	h.add(key, 0, 1)
	h.add(key, 1, 2)
	h.add(key, 1, 3)
	entries := 0
	for i := range h.entries {
		if e := &h.entries[i]; e.n > 0 && e.key == key {
			entries++
		}
	}
	if entries != 2 {
		t.Fatalf("key live in both streams holds %d entries, want 2", entries)
	}
	h.removeOldest(key, 0)
	if got := h.slots(key, 0); got != nil {
		t.Fatalf("expired stream-0 run still found: %v", got)
	}
	if got := h.slots(key, 1); !slices.Equal(got, []int32{2, 3}) {
		t.Fatalf("stream-1 run after stream-0 expiry = %v, want [2 3]", got)
	}
	for k := int32(100); k < 140; k++ {
		if got := h.slots(k, int(k)%2); !slices.Equal(got, []int32{k}) {
			t.Fatalf("neighbour key %d: run %v", k, got)
		}
		if got := h.slots(k, 1-int(k)%2); got != nil {
			t.Fatalf("neighbour key %d found in the wrong stream: %v", k, got)
		}
	}
}

// TestHashIndexPromotesInlineRun checks the inline-run life cycle: a key's
// first timestamp lives in its table entry and takes no arena space, the
// second append promotes the run to the arena's smallest class, and the
// arena run goes back to its free list when the run's last slot expires.
func TestHashIndexPromotesInlineRun(t *testing.T) {
	h := newHashIndex()
	h.add(1, 0, 10) // keeps the index from draining (a drain releases all)
	h.add(2, 1, 20)
	e := &h.entries[h.find(2, 1)]
	if e.class() != 0 || len(h.arena) != 0 {
		t.Fatalf("first append: class %d, arena %d slots; want an inline run", e.class(), len(h.arena))
	}
	if got := h.slots(2, 1); !slices.Equal(got, []int32{20}) {
		t.Fatalf("inline run = %v, want [20]", got)
	}
	h.add(2, 1, 21)
	e = &h.entries[h.find(2, 1)]
	if e.class() != 1 || len(h.arena) != 2 {
		t.Fatalf("second append: class %d, arena %d slots; want class 1 in 2 slots", e.class(), len(h.arena))
	}
	off := e.off[0]
	if got := h.slots(2, 1); !slices.Equal(got, []int32{20, 21}) {
		t.Fatalf("promoted run = %v, want [20 21]", got)
	}
	h.removeOldest(2, 1)
	h.removeOldest(2, 1)
	if h.freeHead[1] != off {
		t.Fatalf("expired run at %d not on the class-1 free list (head %d)", off, h.freeHead[1])
	}
	// The next promotion reuses the freed run instead of growing the arena.
	h.add(3, 0, 30)
	h.add(3, 0, 31)
	if len(h.arena) != 2 || h.entries[h.find(3, 0)].off[0] != off {
		t.Fatalf("freed run not recycled: arena %d slots", len(h.arena))
	}
}

// TestIdxEntrySize pins the entry layout: four 32-bit fields, so four
// entries share a 64-byte cache line, and footprint charges the real size.
func TestIdxEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(idxEntry{}); got != idxEntryBytes || idxEntryBytes != 16 {
		t.Fatalf("idxEntry is %d bytes, idxEntryBytes %d; want 16", got, idxEntryBytes)
	}
}

// TestHashIndexRunOutgrowsStartField checks that a run which would outgrow
// the class its packed start field can address panics with a clear message
// rather than overflowing into the stream bit. The entry is built at the
// top class directly, so no run of that size is ever allocated.
func TestHashIndexRunOutgrowsStartField(t *testing.T) {
	h := newHashIndex()
	e := idxEntry{key: 5, n: 1 << maxRunClass, meta: metaStreamBit}
	e.setRun(0, maxRunClass)
	if e.stream() != 1 || e.class() != maxRunClass || e.start() != 0 {
		t.Fatalf("packed meta reads stream %d class %d start %d", e.stream(), e.class(), e.start())
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "outgrows") {
			t.Fatalf("append to a full top-class run: recovered %q, want an outgrows panic", msg)
		}
	}()
	h.appendSlot(&e, 1)
}

// TestHashIndexReleaseOnDrain checks that a fully drained index reports a
// zero footprint (exact accounting for idle buckets) and stays usable.
func TestHashIndexReleaseOnDrain(t *testing.T) {
	h := newHashIndex()
	for i := int32(0); i < 100; i++ {
		h.add(i%10, int(i%3)%2, i)
	}
	if h.footprint() == 0 {
		t.Fatal("live index reports zero footprint")
	}
	for i := int32(0); i < 100; i++ {
		h.removeOldest(i%10, int(i%3)%2)
	}
	if h.footprint() != 0 || h.liveKeys(0)+h.liveKeys(1) != 0 || h.liveSlots(0)+h.liveSlots(1) != 0 {
		t.Fatalf("drained index: footprint=%d keys=%d+%d slots=%d+%d", h.footprint(),
			h.liveKeys(0), h.liveKeys(1), h.liveSlots(0), h.liveSlots(1))
	}
	h.add(7, 1, 1000)
	if got := h.slots(7, 1); !slices.Equal(got, []int32{1000}) {
		t.Fatalf("index unusable after release: %v", got)
	}
}

// TestHashIndexRecyclesRuns checks the zero-allocation property directly: a
// steady add/expire cycle over both streams at a fixed key population
// allocates nothing once the free lists are primed.
func TestHashIndexRecyclesRuns(t *testing.T) {
	h := newHashIndex()
	ts := int32(0)
	var order [][2]int32 // (key, stream) in append order
	// Prime: 512 keys in each stream, up to 4 duplicate slots each.
	for rounds := 0; rounds < 4; rounds++ {
		for k := int32(0); k < 512; k++ {
			for s := int32(0); s < 2; s++ {
				h.add(k, int(s), ts)
				ts++
				order = append(order, [2]int32{k, s})
			}
		}
	}
	cursor := 0
	step := func() {
		ks := order[cursor%len(order)]
		h.removeOldest(ks[0], int(ks[1]))
		h.add(ks[0], int(ks[1]), ts)
		ts++
		cursor++
	}
	for i := 0; i < len(order); i++ { // settle one full population cycle
		step()
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Fatalf("steady-state index cycle allocates %v per op", allocs)
	}
}

// TestSplitAllocsIndependentOfKeys forces one split of a bucket holding a
// fixed number of tuples over a growing number of distinct keys. Each
// child's index table and arena are sized from the parent's and allocated
// once, so the split's allocation count must not grow with the keys; an
// index rebuilt tuple by tuple would grow its table from minTableSize,
// paying one allocation per doubling. The keys divide evenly on the split's
// bit, so the children's stores allocate alike for every key count.
func TestSplitAllocsIndependentOfKeys(t *testing.T) {
	const perStream, runs = 2048, 3
	cfg := Config{
		WindowMs: 1 << 30,                       // nothing expires
		Theta:    perStream * tuple.LogicalSize, // the filled bucket is exactly 2θ
		FineTune: true,
		Mode:     ModeHash,
		Expiry:   ExpiryBlocks,
	}
	// One more tuple, of a key the fill never uses, pushes it over 2θ.
	extra := []tuple.Tuple{tup(tuple.S1, -1, perStream)}
	var want float64
	for i, keys := range []int{64, 256, 1024} {
		var side [2][]int32 // keys by FineHash bit 0, the first split's bit
		for k := int32(0); len(side[0])+len(side[1]) < keys; k++ {
			if b := tuple.FineHash(k) & 1; len(side[b]) < keys/2 {
				side[b] = append(side[b], k)
			}
		}
		ks := append(side[0], side[1]...)
		fill := make([]tuple.Tuple, 0, 2*perStream)
		for j := 0; j < perStream; j++ {
			k := ks[j%keys]
			fill = append(fill, tup(tuple.S1, k, int32(j)), tup(tuple.S2, k, int32(j)))
		}
		ms := make([]*Module, runs+1)
		for r := range ms {
			ms[r] = MustNew(cfg)
			ms[r].Process(0, perStream, fill)
		}
		n := 0
		allocs := testing.AllocsPerRun(runs, func() {
			ms[n].Process(0, perStream+1, extra)
			n++
		})
		for _, m := range ms {
			if g, _ := m.Get(0); g.NumBuckets() != 2 || m.Splits() != 1 {
				t.Fatalf("%d keys: %d buckets after %d splits, want 2 after 1", keys, g.NumBuckets(), m.Splits())
			}
			hashFootprint(t, m) // audits every index against its stores
		}
		t.Logf("%d keys: %v allocations per split", keys, allocs)
		if i == 0 {
			want = allocs
		} else if allocs != want {
			t.Errorf("split of %d keys allocates %v, of 64 keys %v", keys, allocs, want)
		}
	}
}

// liveSlots counts stream s's live slots across all keys (must equal that
// window store's live length).
func (h *hashIndex) liveSlots(s int) int {
	n := 0
	for i := range h.entries {
		if e := &h.entries[i]; e.n > 0 && e.stream() == s {
			n += int(e.n)
		}
	}
	return n
}
