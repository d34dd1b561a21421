package join

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refIndex is the map-of-slices reference the arena index replaced.
type refIndex struct {
	m map[int32][]int32
}

func (r *refIndex) add(key, ts int32) { r.m[key] = append(r.m[key], ts) }

func (r *refIndex) removeOldest(key int32) {
	if l := r.m[key]; len(l) > 1 {
		r.m[key] = l[1:]
	} else {
		delete(r.m, key)
	}
}

// TestHashIndexMatchesMapReference drives the arena index and the old map
// implementation through identical randomized add/expire sequences and
// checks every key's timestamp run after each operation. Expiry is
// oldest-first across keys, mirroring how window stores expire. Timestamps
// are non-decreasing with frequent repeats, as in a round whose tuples share
// a millisecond, so a run may hold equal neighbours.
func TestHashIndexMatchesMapReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := newHashIndex()
		ref := &refIndex{m: make(map[int32][]int32)}
		var liveOrder []int32 // keys in append order (expiry order)
		const domain = 60
		ts := int32(0)
		for op := 0; op < 3000; op++ {
			if r.Intn(3) < 2 || len(liveOrder) == 0 {
				key := r.Int31n(domain)
				ts += r.Int31n(2)
				h.add(key, ts)
				ref.add(key, ts)
				liveOrder = append(liveOrder, key)
			} else {
				key := liveOrder[0]
				liveOrder = liveOrder[1:]
				h.removeOldest(key)
				ref.removeOldest(key)
			}
			if h.liveKeys() != len(ref.m) {
				t.Logf("seed %d op %d: %d keys, reference %d", seed, op, h.liveKeys(), len(ref.m))
				return false
			}
			if h.liveSlots() != len(liveOrder) {
				t.Logf("seed %d op %d: %d slots, want %d", seed, op, h.liveSlots(), len(liveOrder))
				return false
			}
			// Spot-check a few keys every operation, all keys occasionally.
			check := func(key int32) bool {
				got, want := h.slots(key), ref.m[key]
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						return false
					}
				}
				return true
			}
			if op%97 == 0 {
				for key := int32(0); key < domain; key++ {
					if !check(key) {
						t.Logf("seed %d op %d: slots differ for key %d", seed, op, key)
						return false
					}
				}
			} else if !check(r.Int31n(domain)) {
				t.Logf("seed %d op %d: slots differ", seed, op)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHashIndexReleaseOnDrain checks that a fully drained index reports a
// zero footprint (exact accounting for idle buckets) and stays usable.
func TestHashIndexReleaseOnDrain(t *testing.T) {
	h := newHashIndex()
	for i := int32(0); i < 100; i++ {
		h.add(i%10, i)
	}
	if h.footprint() == 0 {
		t.Fatal("live index reports zero footprint")
	}
	for i := int32(0); i < 100; i++ {
		h.removeOldest(i % 10)
	}
	if h.footprint() != 0 || h.liveKeys() != 0 || h.liveSlots() != 0 {
		t.Fatalf("drained index: footprint=%d keys=%d slots=%d",
			h.footprint(), h.liveKeys(), h.liveSlots())
	}
	h.add(7, 1000)
	if got := h.slots(7); len(got) != 1 || got[0] != 1000 {
		t.Fatalf("index unusable after release: %v", got)
	}
}

// TestHashIndexRecyclesRuns checks the zero-allocation property directly: a
// steady add/expire cycle at a fixed key population allocates nothing once
// the free lists are primed.
func TestHashIndexRecyclesRuns(t *testing.T) {
	h := newHashIndex()
	ts := int32(0)
	var order []int32
	// Prime: 512 keys, up to 4 duplicate slots each, then one full cycle.
	for rounds := 0; rounds < 4; rounds++ {
		for k := int32(0); k < 512; k++ {
			h.add(k, ts)
			ts++
			order = append(order, k)
		}
	}
	cursor := 0
	step := func() {
		key := order[cursor%len(order)]
		h.removeOldest(key)
		h.add(key, ts)
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
