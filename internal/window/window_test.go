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
	if s.Blocks() != 4 {
		t.Fatalf("blocks = %d", s.Blocks())
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

func TestAllIteratesInOrder(t *testing.T) {
	s := NewStore()
	for i := int32(0); i < 150; i++ {
		s.Append(pk(i, i))
	}
	var got []int32
	s.All(func(p tuple.Packed) { got = append(got, p.Key) })
	if len(got) != 150 {
		t.Fatalf("len = %d", len(got))
	}
	for i, k := range got {
		if k != int32(i) {
			t.Fatalf("got[%d] = %d", i, k)
		}
	}
}

func TestFromSeqIteratesSuffix(t *testing.T) {
	s := NewStore()
	for i := int32(0); i < 100; i++ {
		s.Append(pk(i, i))
	}
	mark := s.Appended()
	for i := int32(100); i < 130; i++ {
		s.Append(pk(i, i))
	}
	var got []int32
	s.FromSeq(mark, func(p tuple.Packed) { got = append(got, p.Key) })
	if len(got) != 30 || got[0] != 100 || got[29] != 129 {
		t.Fatalf("suffix = %v", got)
	}
}

func TestFromSeqAfterExpiry(t *testing.T) {
	s := NewStore()
	for i := int32(0); i < 100; i++ {
		s.Append(pk(i, i))
	}
	mark := s.Appended() // 100
	s.ExpireExact(50, nil)
	for i := int32(100); i < 110; i++ {
		s.Append(pk(i, i))
	}
	var got []int32
	s.FromSeq(mark, func(p tuple.Packed) { got = append(got, p.Key) })
	if len(got) != 10 || got[0] != 100 {
		t.Fatalf("suffix after expiry = %v", got)
	}
	// A mark older than all expired tuples clamps to the live range.
	var all []int32
	s.FromSeq(0, func(p tuple.Packed) { all = append(all, p.Key) })
	if len(all) != s.Len() {
		t.Fatalf("clamped iteration: %d vs %d", len(all), s.Len())
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
	if old, ok := s.OldestTS(); !ok || old != 500 {
		t.Fatalf("oldest = %d, %v", old, ok)
	}
	if s.Expired() != 50 {
		t.Fatalf("expired counter = %d", s.Expired())
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
	if _, ok := s.OldestTS(); ok {
		t.Fatal("OldestTS on empty store")
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
	s.All(func(p tuple.Packed) {
		if snap[i] != p {
			t.Fatalf("snapshot[%d] mismatch", i)
		}
		i++
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
	m.All(func(p tuple.Packed) {
		if p.TS < last {
			t.Fatalf("merge out of order: %d after %d", p.TS, last)
		}
		last = p.TS
	})
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
	// After arbitrary append/expire sequences, Len == Appended - Expired and
	// iteration visits exactly Len tuples in order.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		ts := int32(0)
		for op := 0; op < 200; op++ {
			if r.Intn(3) < 2 {
				ts += int32(r.Intn(3))
				s.Append(pk(int32(op), ts))
			} else {
				cutoff := ts - int32(r.Intn(10)) + 2
				if r.Intn(2) == 0 {
					s.ExpireExact(cutoff, nil)
				} else {
					s.ExpireBlocks(cutoff, nil)
				}
			}
			if int64(s.Len()) != s.Appended()-s.Expired() {
				return false
			}
			n, last := 0, int32(-1)
			bad := false
			s.All(func(p tuple.Packed) {
				if p.TS < last {
					bad = true
				}
				last = p.TS
				n++
			})
			if bad || n != s.Len() {
				return false
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
	var fromAll, fromChunks []tuple.Packed
	s.All(func(p tuple.Packed) { fromAll = append(fromAll, p) })
	s.Chunks(func(c []tuple.Packed) { fromChunks = append(fromChunks, c...) })
	if len(fromChunks) != len(fromAll) || len(fromChunks) != s.Len() {
		t.Fatalf("chunks yielded %d tuples, All %d, Len %d",
			len(fromChunks), len(fromAll), s.Len())
	}
	for i := range fromAll {
		if fromAll[i] != fromChunks[i] {
			t.Fatalf("chunk iteration diverges at %d", i)
		}
	}
}

func TestFromSeqChunksMatchesFromSeq(t *testing.T) {
	s := NewStore()
	for i := int32(0); i < 300; i++ {
		s.Append(pk(i, i))
	}
	s.ExpireExact(90, nil)
	for _, mark := range []int64{0, 90, 100, 170, 299, 300} {
		var a, b []tuple.Packed
		s.FromSeq(mark, func(p tuple.Packed) { a = append(a, p) })
		s.FromSeqChunks(mark, func(c []tuple.Packed) { b = append(b, c...) })
		if len(a) != len(b) {
			t.Fatalf("mark %d: %d vs %d tuples", mark, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("mark %d: diverges at %d", mark, i)
			}
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
