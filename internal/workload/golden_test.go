package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"streamjoin/internal/tuple"
)

// TestSourceGoldenTicks pins both streams of a Pair, keys and timestamps, as
// the live feeder consumes them: 400 consecutive 5 ms Batch calls with a rate
// change half-way. Every figure and every benchmark input is a function of
// these streams, so a change to Source or to the b-model generator that
// alters a constant below changes all of them.
func TestSourceGoldenTicks(t *testing.T) {
	const (
		wantS1Len  = 420349
		wantS1Hash = 0xd29be9c56531b459
		wantS2Len  = 419276
		wantS2Hash = 0xd33bc10d130efba5
	)
	s1, s2 := Pair(Config{Rate: 300_000, Skew: 0.7, Domain: 10_000_000, Seed: 1})
	h1, h2 := fnv.New64a(), fnv.New64a()
	n1, n2 := 0, 0
	var buf [8]byte
	put := func(tp tuple.Tuple) []byte {
		binary.LittleEndian.PutUint32(buf[:4], uint32(tp.Key))
		binary.LittleEndian.PutUint32(buf[4:], uint32(tp.TS))
		return buf[:]
	}
	for tick := int32(0); tick < 400; tick++ {
		if tick == 200 {
			s1.SetRate(120_000)
			s2.SetRate(120_000)
		}
		from, to := tick*5, (tick+1)*5
		for _, tp := range s1.Batch(from, to) {
			h1.Write(put(tp))
			n1++
		}
		for _, tp := range s2.Batch(from, to) {
			h2.Write(put(tp))
			n2++
		}
	}
	if n1 != wantS1Len || h1.Sum64() != wantS1Hash {
		t.Errorf("S1: %d tuples hash %#016x, want %d hash %#016x", n1, h1.Sum64(), wantS1Len, uint64(wantS1Hash))
	}
	if n2 != wantS2Len || h2.Sum64() != wantS2Hash {
		t.Errorf("S2: %d tuples hash %#016x, want %d hash %#016x", n2, h2.Sum64(), wantS2Len, uint64(wantS2Hash))
	}
}
