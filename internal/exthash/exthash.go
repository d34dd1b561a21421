// Package exthash implements the extendible-hashing directory (Fagin,
// Nievergelt, Pippenger, Strong, TODS 1979) that the paper uses to fine-tune
// window partitions inside a partition-group (§IV-D).
//
// A directory of global depth d has 2^d slots indexed by the d least
// significant bits of a hash. Each bucket carries a local depth d' ≤ d and is
// referenced by 2^(d−d') slots whose low d' bits agree — those bits are the
// bucket's canonical identifier. Splitting an overflowing bucket raises its
// local depth (doubling the directory first when d' = d); merging joins a
// bucket with its buddy — the bucket whose canonical bits differ only in bit
// d'−1, which is exactly the paper's l_bud rule expressed on slot indices.
package exthash

import "fmt"

// Dir is an extendible-hashing directory with buckets of type B.
type Dir[B any] struct {
	global   uint
	slots    []*entry[B]
	maxDepth uint
}

type entry[B any] struct {
	local uint
	val   B
}

// DefaultMaxDepth bounds bucket local depths; 2^20 buckets is far beyond
// anything the defaults can produce and guards against splitting pathologies
// (e.g., many tuples sharing one key, which no hash bit can separate).
const DefaultMaxDepth = 20

// New returns a directory of global depth 0 holding the single bucket
// initial.
func New[B any](initial B) *Dir[B] {
	return &Dir[B]{
		global:   0,
		slots:    []*entry[B]{{local: 0, val: initial}},
		maxDepth: DefaultMaxDepth,
	}
}

// SetMaxDepth overrides the split depth bound.
func (d *Dir[B]) SetMaxDepth(m uint) { d.maxDepth = m }

// GlobalDepth returns the directory's global depth.
func (d *Dir[B]) GlobalDepth() uint { return d.global }

// NumSlots returns the number of directory slots (2^global).
func (d *Dir[B]) NumSlots() int { return len(d.slots) }

// NumBuckets returns the number of distinct buckets.
func (d *Dir[B]) NumBuckets() int {
	n := 0
	d.Buckets(func(uint32, uint, B) { n++ })
	return n
}

func (d *Dir[B]) mask() uint64 { return (1 << d.global) - 1 }

func (d *Dir[B]) slotOf(h uint64) int { return int(h & d.mask()) }

// Lookup returns the bucket responsible for hash h.
func (d *Dir[B]) Lookup(h uint64) B {
	return d.slots[d.slotOf(h)].val
}

// LocalDepth returns the local depth of the bucket responsible for h.
func (d *Dir[B]) LocalDepth(h uint64) uint {
	return d.slots[d.slotOf(h)].local
}

// CanonicalBits returns the canonical identifier of the bucket holding h:
// its low local-depth bits.
func (d *Dir[B]) CanonicalBits(h uint64) uint32 {
	e := d.slots[d.slotOf(h)]
	return uint32(h & ((1 << e.local) - 1))
}

// Buckets calls fn once per distinct bucket with its canonical bits, local
// depth and value, in increasing canonical-slot order. A bucket of local
// depth d' is referenced by every slot whose low d' bits equal its canonical
// bits; the smallest such slot index IS the canonical bits, so visiting each
// bucket exactly once needs no seen-set — the round-processing hot loop
// iterates the directory allocation-free.
func (d *Dir[B]) Buckets(fn func(bits uint32, local uint, v B)) {
	for i, e := range d.slots {
		if uint64(i)&((1<<e.local)-1) == uint64(i) {
			fn(uint32(i), e.local, e.val)
		}
	}
}

// Split divides the bucket responsible for h. The split callback receives
// the old bucket value and the discriminating bit index (the old local
// depth) and returns the two replacement buckets: zero receives hashes whose
// bit is 0, one the rest. Split reports false — without calling split — when
// the bucket already sits at the maximum depth.
func (d *Dir[B]) Split(h uint64, split func(old B, bit uint) (zero, one B)) bool {
	e := d.slots[d.slotOf(h)]
	if e.local >= d.maxDepth {
		return false
	}
	if e.local == d.global {
		// Double the directory: the upper half mirrors the lower.
		d.slots = append(d.slots, d.slots...)
		d.global++
	}
	bit := e.local
	zeroVal, oneVal := split(e.val, bit)
	e0 := &entry[B]{local: bit + 1, val: zeroVal}
	e1 := &entry[B]{local: bit + 1, val: oneVal}
	for i, s := range d.slots {
		if s != e {
			continue
		}
		if (uint64(i)>>bit)&1 == 0 {
			d.slots[i] = e0
		} else {
			d.slots[i] = e1
		}
	}
	return true
}

// TryMergeBuddy merges the bucket responsible for h with its buddy if both
// have the same local depth and canMerge approves. merge receives the
// zero-side bucket first. It reports whether a merge happened, and shrinks
// the directory when possible afterwards.
func (d *Dir[B]) TryMergeBuddy(h uint64, canMerge func(a, b B) bool, merge func(zero, one B) B) bool {
	idx := d.slotOf(h)
	e := d.slots[idx]
	if e.local == 0 {
		return false
	}
	bit := e.local - 1
	buddyIdx := idx ^ (1 << bit)
	be := d.slots[buddyIdx]
	if be == e || be.local != e.local {
		return false
	}
	zero, one := e, be
	if (uint64(idx)>>bit)&1 == 1 {
		zero, one = be, e
	}
	if !canMerge(zero.val, one.val) {
		return false
	}
	m := &entry[B]{local: e.local - 1, val: merge(zero.val, one.val)}
	for i, s := range d.slots {
		if s == e || s == be {
			d.slots[i] = m
		}
	}
	d.shrink()
	return true
}

// shrink halves the directory while no bucket uses the top bit.
func (d *Dir[B]) shrink() {
	for d.global > 0 {
		half := len(d.slots) / 2
		for i := 0; i < half; i++ {
			if d.slots[i] != d.slots[i+half] {
				return
			}
		}
		d.slots = d.slots[:half]
		d.global--
	}
}

// Spec describes one bucket for directory reconstruction (state movement).
type Spec struct {
	Local uint
	Bits  uint32
}

// Shape returns the directory's global depth and bucket specs, suitable for
// FromShape on the receiving side of a state movement.
func (d *Dir[B]) Shape() (global uint, specs []Spec) {
	d.Buckets(func(bits uint32, local uint, _ B) {
		specs = append(specs, Spec{Local: local, Bits: bits})
	})
	return d.global, specs
}

// FromShape reconstructs a directory from a shape produced by Shape. mk is
// called once per bucket to create its (empty) value.
func FromShape[B any](global uint, specs []Spec, mk func(bits uint32, local uint) B) (*Dir[B], error) {
	if global > 30 {
		return nil, fmt.Errorf("exthash: global depth %d too large", global)
	}
	n := 1 << global
	slots := make([]*entry[B], n)
	for _, sp := range specs {
		if sp.Local > global {
			return nil, fmt.Errorf("exthash: local depth %d exceeds global %d", sp.Local, global)
		}
		if uint64(sp.Bits) >= 1<<sp.Local {
			return nil, fmt.Errorf("exthash: bits %#x wider than local depth %d", sp.Bits, sp.Local)
		}
		e := &entry[B]{local: sp.Local, val: mk(sp.Bits, sp.Local)}
		step := 1 << sp.Local
		for i := int(sp.Bits); i < n; i += step {
			if slots[i] != nil {
				return nil, fmt.Errorf("exthash: overlapping buckets at slot %d", i)
			}
			slots[i] = e
		}
	}
	for i, s := range slots {
		if s == nil {
			return nil, fmt.Errorf("exthash: slot %d not covered by any bucket", i)
		}
	}
	return &Dir[B]{global: global, slots: slots, maxDepth: DefaultMaxDepth}, nil
}

// Validate checks the directory invariants. Only tests call it: installing a
// moved partition-group goes through FromShape, which checks its input.
func (d *Dir[B]) Validate() error {
	if len(d.slots) != 1<<d.global {
		return fmt.Errorf("exthash: %d slots for global depth %d", len(d.slots), d.global)
	}
	refs := map[*entry[B]]int{}
	for _, e := range d.slots {
		refs[e]++
	}
	for e, n := range refs {
		if e.local > d.global {
			return fmt.Errorf("exthash: local depth %d exceeds global %d", e.local, d.global)
		}
		if want := 1 << (d.global - e.local); n != want {
			return fmt.Errorf("exthash: bucket with local depth %d has %d refs, want %d", e.local, n, want)
		}
	}
	// Every slot pointing at a bucket must share its canonical bits.
	for i, e := range d.slots {
		mask := uint64(1<<e.local) - 1
		canon := -1
		for j, f := range d.slots {
			if f == e {
				if canon == -1 {
					canon = int(uint64(j) & mask)
				} else if int(uint64(j)&mask) != canon {
					return fmt.Errorf("exthash: slot %d disagrees on canonical bits", i)
				}
			}
		}
	}
	return nil
}
