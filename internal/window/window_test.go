package window

import (
	"math/rand"
	"testing"
	"testing/quick"

	"streamjoin/internal/tuple"
)

func pk(key, ts int32) tuple.Packed { return tuple.Packed{Key: key, TS: ts} }

func TestAppendAndLen(t *testing.T) {
	s := NewStore()
	for i := int32(0); i < 200; i++ {
		s.Append(pk(i, i))
	}
	if s.Len() != 200 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Bytes() != 200*tuple.LogicalSize {
		t.Fatalf("bytes = %d", s.Bytes())
	}
	// 200 tuples at 64/block -> 4 blocks (3 full + 1 partial).
	if len(s.blocks) != 4 {
		t.Fatalf("blocks = %d", len(s.blocks))
	}
}

func TestAppendOutOfOrderPanics(t *testing.T) {
	s := NewStore()
	s.Append(pk(1, 10))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Append(pk(2, 9))
}

// TestAllIteratesInOrder: Chunks visits every live tuple, in append order.
func TestAllIteratesInOrder(t *testing.T) {
	s := NewStore()
	for i := int32(0); i < 150; i++ {
		s.Append(pk(i, i))
	}
	var got []int32
	s.Chunks(func(c []tuple.Packed) {
		for _, p := range c {
			got = append(got, p.Key)
		}
	})
	if len(got) != 150 {
		t.Fatalf("len = %d", len(got))
	}
	for i, k := range got {
		if k != int32(i) {
			t.Fatalf("got[%d] = %d", i, k)
		}
	}
}

func TestExpireExact(t *testing.T) {
	s := NewStore()
	for i := int32(0); i < 100; i++ {
		s.Append(pk(i, i*10))
	}
	var removed []int32
	n := s.ExpireExact(500, func(chunk []tuple.Packed) {
		for _, p := range chunk {
			removed = append(removed, p.TS)
		}
	})
	if n != 50 || s.Len() != 50 {
		t.Fatalf("removed %d, live %d", n, s.Len())
	}
	for _, ts := range removed {
		if ts >= 500 {
			t.Fatalf("expired live tuple ts=%d", ts)
		}
	}
	if snap := s.Snapshot(); len(snap) != 50 || snap[0].TS != 500 {
		t.Fatalf("live after expiry = %+v", snap)
	}
}

func TestExpireExactEverything(t *testing.T) {
	s := NewStore()
	for i := int32(0); i < 100; i++ {
		s.Append(pk(i, i))
	}
	if n := s.ExpireExact(1000, nil); n != 100 {
		t.Fatalf("removed %d", n)
	}
	if s.Len() != 0 {
		t.Fatal("store should be empty")
	}
	if len(s.Snapshot()) != 0 {
		t.Fatal("Snapshot on empty store")
	}
	if _, ok := s.NewestTS(); ok {
		t.Fatal("NewestTS on empty store")
	}
	// Store stays usable after full expiry.
	s.Append(pk(1, 2000))
	if s.Len() != 1 {
		t.Fatal("append after full expiry")
	}
}

func TestExpireBlocksKeepsPartialHead(t *testing.T) {
	s := NewStore()
	// 64 old tuples (one full block) + 10 newer in a partial block.
	for i := int32(0); i < 64; i++ {
		s.Append(pk(i, 10))
	}
	for i := int32(0); i < 10; i++ {
		s.Append(pk(100+i, 20))
	}
	// Cutoff above everything: block policy removes the full block but must
	// keep the partial head block even though its tuples are expired.
	n := s.ExpireBlocks(1000, nil)
	if n != 64 {
		t.Fatalf("removed %d, want 64", n)
	}
	if s.Len() != 10 {
		t.Fatalf("live = %d", s.Len())
	}
}

func TestExpireBlocksIsConservative(t *testing.T) {
	// Block expiry never removes a tuple that exact expiry would keep.
	f := func(seed int64, cutRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := NewStore(), NewStore()
		ts := int32(0)
		for i := 0; i < 300; i++ {
			ts += int32(r.Intn(5))
			p := pk(int32(i), ts)
			a.Append(p)
			b.Append(p)
		}
		cutoff := int32(cutRaw) % (ts + 2)
		na := a.ExpireBlocks(cutoff, nil)
		nb := b.ExpireExact(cutoff, nil)
		if na > nb {
			return false
		}
		// And every tuple block expiry removed is one exact expiry removed.
		return a.Len() >= b.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotMatchesAll(t *testing.T) {
	s := NewStore()
	for i := int32(0); i < 500; i++ {
		s.Append(pk(i, i/3))
	}
	s.ExpireExact(50, nil)
	snap := s.Snapshot()
	if len(snap) != s.Len() {
		t.Fatalf("snapshot len %d vs %d", len(snap), s.Len())
	}
	i := 0
	s.Chunks(func(c []tuple.Packed) {
		for _, p := range c {
			if snap[i] != p {
				t.Fatalf("snapshot[%d] mismatch", i)
			}
			i++
		}
	})
}

func TestMergeStoresInterleaves(t *testing.T) {
	a, b := NewStore(), NewStore()
	for i := int32(0); i < 50; i++ {
		a.Append(pk(i, i*2))   // even timestamps
		b.Append(pk(i, i*2+1)) // odd timestamps
	}
	m := MergeStores(a, b)
	if m.Len() != 100 {
		t.Fatalf("merged len = %d", m.Len())
	}
	last := int32(-1)
	for _, p := range m.Snapshot() {
		if p.TS < last {
			t.Fatalf("merge out of order: %d after %d", p.TS, last)
		}
		last = p.TS
	}
}

func TestMergeEmptyStores(t *testing.T) {
	if m := MergeStores(NewStore(), NewStore()); m.Len() != 0 {
		t.Fatal("merge of empties")
	}
	a := NewStore()
	a.Append(pk(1, 1))
	if m := MergeStores(a, NewStore()); m.Len() != 1 {
		t.Fatal("merge with empty")
	}
}

func TestQuickLivenessInvariant(t *testing.T) {
	// After arbitrary Append, AppendRun, ExpireExact, ExpireBlocks and Clear
	// sequences, Len counts exactly the tuples a snapshot holds, they are in
	// timestamp order, and Bytes is Len logical tuples.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		ts := int32(0)
		for op := 0; op < 200; op++ {
			switch k := r.Intn(12); {
			case k < 5:
				ts += int32(r.Intn(3))
				s.Append(pk(int32(op), ts))
			case k < 7:
				run := make([]tuple.Packed, r.Intn(2*tuple.TuplesPerBlock))
				for i := range run {
					ts += int32(r.Intn(2))
					run[i] = pk(int32(op), ts)
				}
				s.AppendRun(run)
			case k < 9:
				s.ExpireExact(ts-int32(r.Intn(10))+2, nil)
			case k < 11:
				s.ExpireBlocks(ts-int32(r.Intn(10))+2, nil)
			default:
				s.Clear()
			}
			snap := s.Snapshot()
			if s.Len() != len(snap) || s.Bytes() != int64(s.Len())*tuple.LogicalSize {
				return false
			}
			for i := 1; i < len(snap); i++ {
				if snap[i].TS < snap[i-1].TS {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestChunksMatchAll(t *testing.T) {
	s := NewStore()
	for i := int32(0); i < 500; i++ {
		s.Append(pk(i, i/3))
	}
	s.ExpireExact(50, nil)
	// Every appended tuple with TS >= 50 survives, in append order.
	var fromAll, fromChunks []tuple.Packed
	for i := int32(150); i < 500; i++ {
		fromAll = append(fromAll, pk(i, i/3))
	}
	s.Chunks(func(c []tuple.Packed) { fromChunks = append(fromChunks, c...) })
	if len(fromChunks) != len(fromAll) || len(fromChunks) != s.Len() {
		t.Fatalf("chunks yielded %d tuples, want %d, Len %d",
			len(fromChunks), len(fromAll), s.Len())
	}
	for i := range fromAll {
		if fromAll[i] != fromChunks[i] {
			t.Fatalf("chunk iteration diverges at %d", i)
		}
	}
}

// TestExpiryChunksAreOrderedAndComplete checks the chunked expiry callback
// contract: the chunks concatenate to exactly the removed tuples, in
// temporal order, under both policies.
func TestExpiryChunksAreOrderedAndComplete(t *testing.T) {
	f := func(seed int64, cutRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		ts := int32(0)
		for i := 0; i < 400; i++ {
			ts += int32(r.Intn(4))
			s.Append(pk(int32(i), ts))
		}
		cutoff := int32(cutRaw) % (ts + 2)
		var got []tuple.Packed
		var n int
		if seed%2 == 0 {
			n = s.ExpireExact(cutoff, func(c []tuple.Packed) { got = append(got, c...) })
		} else {
			n = s.ExpireBlocks(cutoff, func(c []tuple.Packed) { got = append(got, c...) })
		}
		if len(got) != n {
			return false
		}
		last := int32(-1)
		for _, p := range got {
			if p.TS < last || p.TS >= cutoff {
				return false
			}
			last = p.TS
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockRecyclingSteadyState checks the allocation discipline: a store
// cycling through append/expire at a steady rate reuses its expired block
// buffers instead of allocating fresh ones.
func TestBlockRecyclingSteadyState(t *testing.T) {
	s := NewStore()
	// Fill past several blocks, then settle into a steady window.
	ts := int32(0)
	for i := 0; i < 50*tuple.TuplesPerBlock; i++ {
		ts++
		s.Append(pk(int32(i), ts))
		s.ExpireExact(ts-int32(10*tuple.TuplesPerBlock), nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		ts++
		s.Append(pk(7, ts))
		s.ExpireExact(ts-int32(10*tuple.TuplesPerBlock), nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state append/expire allocates %v per op", allocs)
	}
}
