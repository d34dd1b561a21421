package join

import (
	"slices"
	"testing"

	"streamjoin/internal/tuple"
	"streamjoin/internal/window"
)

// distinctRound builds one round of n tuples with distinct keys per stream.
func distinctRound(n int, ts int32) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, 2*n)
	for k := 0; k < n; k++ {
		out = append(out,
			tup(tuple.S1, int32(k), ts),
			tup(tuple.S2, int32(k), ts))
	}
	return out
}

// hashFootprint recomputes the module's hash-index footprint from the index
// internals — every bucket's open-addressing table plus timestamp arena,
// summed over every hash-mode query — and audits each index against its
// stores on the way (auditHashIndex).
func hashFootprint(t *testing.T, m *Module) int64 {
	t.Helper()
	var n int64
	for _, id := range m.IDs() {
		g, _ := m.Get(id)
		g.dir.Buckets(func(_ uint32, _ uint, b *bucket) {
			for qi := range b.qs {
				if b.qs[qi].mode != ModeHash {
					continue
				}
				idx := b.qs[qi].idx
				n += int64(len(idx.entries))*idxEntryBytes + int64(cap(idx.arena))*idxSlotBytes
				auditHashIndex(t, idx, b.w)
			}
		})
	}
	return n
}

// auditHashIndex checks that idx mirrors both stores exactly: per stream the
// same keys, and for every key a run equal to that store's timestamps for
// the key in append order. It walks the table itself, so every live entry
// must mirror a key of the store its stream bit names and be reachable by
// find from its home slot. A probe emits pairs from the run alone, so a
// stale, missing, misfiled or reordered entry would surface as a wrong pair
// and nothing else.
func auditHashIndex(t *testing.T, idx *hashIndex, stores [2]*window.Store) {
	t.Helper()
	var want [2]map[int32][]int32
	for s, store := range stores {
		want[s] = make(map[int32][]int32)
		store.Chunks(func(chunk []tuple.Packed) {
			for _, p := range chunk {
				want[s][p.Key] = append(want[s][p.Key], p.TS)
			}
		})
		if got := idx.liveSlots(s); got != store.Len() {
			t.Fatalf("index covers %d stream-%d slots for %d live tuples", got, s, store.Len())
		}
		if idx.liveKeys(s) != len(want[s]) {
			t.Fatalf("index holds %d stream-%d keys, store %d", idx.liveKeys(s), s, len(want[s]))
		}
	}
	var entries [2]int
	for i := range idx.entries {
		e := &idx.entries[i]
		if e.n == 0 {
			continue
		}
		s := e.stream()
		entries[s]++
		ts, ok := want[s][e.key]
		if !ok {
			t.Fatalf("entry %d: key %d filed under stream %d, which does not hold it", i, e.key, s)
		}
		if run := idx.run(e); !slices.Equal(run, ts) {
			t.Fatalf("key %d stream %d: index run %v, store timestamps %v", e.key, s, run, ts)
		}
		if got := idx.find(e.key, s); got != i {
			t.Fatalf("key %d stream %d: entry at %d, find reaches %d", e.key, s, i, got)
		}
	}
	for s := range entries {
		if entries[s] != len(want[s]) {
			t.Fatalf("table holds %d stream-%d entries for %d store keys", entries[s], s, len(want[s]))
		}
	}
}

// TestIndexBytesTracksHashIndex checks the exact accounting: the hash
// prober's charge equals the arena index's actual footprint (table plus
// arena), grows with distinct keys and duplicate slots, and vanishes when
// the window drains.
func TestIndexBytesTracksHashIndex(t *testing.T) {
	m := MustNew(testCfg(ModeHash))
	if m.IndexBytes() != 0 {
		t.Fatalf("empty module charges %d index bytes", m.IndexBytes())
	}

	const keys = 500
	m.Process(0, 100, distinctRound(keys, 100))
	got := m.IndexBytes()
	if want := hashFootprint(t, m); got != want {
		t.Fatalf("index bytes = %d, want exact footprint %d", got, want)
	}
	if got < int64(2*keys*idxEntryBytes) {
		t.Fatalf("index bytes = %d, below the floor of %d table entries", got, 2*keys)
	}
	if m.MemoryBytes() != m.WindowBytes()+got {
		t.Fatalf("MemoryBytes %d != WindowBytes %d + IndexBytes %d",
			m.MemoryBytes(), m.WindowBytes(), got)
	}

	// Duplicate keys add arena slots (runs grow) but no new keys.
	m.Process(0, 200, distinctRound(keys, 200))
	got2 := m.IndexBytes()
	if want := hashFootprint(t, m); got2 != want {
		t.Fatalf("after duplicates: index bytes = %d, want %d", got2, want)
	}
	if got2 <= got {
		t.Fatalf("duplicate slots did not grow the arena: %d -> %d", got, got2)
	}

	// Exact expiry far past the window drains stores and index together.
	m.Process(0, 1_000_000, nil)
	if got := m.IndexBytes(); got != 0 {
		t.Fatalf("drained module still charges %d index bytes", got)
	}
	if m.WindowBytes() != 0 {
		t.Fatalf("drained module still holds %d window bytes", m.WindowBytes())
	}
}

// TestIndexBytesByMode checks that every prober charges its own structures:
// the scan prober keeps none, the simulation's modeled count entries cost
// less than the hash prober's table-plus-arena.
func TestIndexBytesByMode(t *testing.T) {
	round := distinctRound(200, 50)
	scan := MustNew(testCfg(ModeScan))
	scan.Process(0, 50, round)
	if scan.IndexBytes() != 0 {
		t.Fatalf("scan prober charges %d index bytes", scan.IndexBytes())
	}
	if scan.MemoryBytes() != scan.WindowBytes() {
		t.Fatal("scan prober memory should be window state only")
	}

	indexed := MustNew(testCfg(ModeIndexed))
	indexed.Process(0, 50, round)
	hash := MustNew(testCfg(ModeHash))
	hash.Process(0, 50, round)
	if indexed.IndexBytes() == 0 || hash.IndexBytes() == 0 {
		t.Fatalf("index accounting missing: indexed=%d hash=%d",
			indexed.IndexBytes(), hash.IndexBytes())
	}
	if indexed.IndexBytes() >= hash.IndexBytes() {
		t.Fatalf("count entries (%d) should cost less than the slot index (%d)",
			indexed.IndexBytes(), hash.IndexBytes())
	}
}

// TestIndexBytesSurvivesSplitsAndMerges checks coherence of the accounting
// across fine-tuning relocation: after splits and merges the charged index
// still matches the exact footprint and covers exactly the live tuples.
func TestIndexBytesSurvivesSplitsAndMerges(t *testing.T) {
	m := MustNew(testCfg(ModeHash))
	ts := int32(0)
	for _, round := range burstRounds(3, 40) {
		ts += 500
		m.Process(0, ts, round)
	}
	if m.Splits() == 0 || m.Merges() == 0 {
		t.Skipf("workload did not exercise tuning: splits=%d merges=%d", m.Splits(), m.Merges())
	}
	if got, want := m.IndexBytes(), hashFootprint(t, m); got != want {
		t.Fatalf("index bytes = %d, want %d", got, want)
	}
}
