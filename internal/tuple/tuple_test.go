package tuple

import (
	"testing"
	"testing/quick"
)

func TestConstantsAreConsistent(t *testing.T) {
	if TuplesPerBlock != 64 {
		t.Fatalf("TuplesPerBlock = %d, want 64 (4KB blocks of 64B tuples)", TuplesPerBlock)
	}
	if ResultSize != 128 {
		t.Fatalf("ResultSize = %d", ResultSize)
	}
}

func TestStreamString(t *testing.T) {
	if S1.String() != "S1" || S2.String() != "S2" {
		t.Fatal("String")
	}
}

func TestPackedDropsStream(t *testing.T) {
	tp := Tuple{Stream: S2, Key: 42, TS: 1000}
	p := tp.Packed()
	if p.Key != 42 || p.TS != 1000 {
		t.Fatalf("packed = %+v", p)
	}
}

func TestPartitionOfInRange(t *testing.T) {
	f := func(key int32) bool {
		p := PartitionOf(key, 60)
		return p >= 0 && p < 60
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionOfDeterministic(t *testing.T) {
	f := func(key int32) bool {
		return PartitionOf(key, 60) == PartitionOf(key, 60)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionOfSpreads(t *testing.T) {
	// Sequential keys should spread across partitions rather than clump.
	const npart = 60
	counts := make([]int, npart)
	const n = 60000
	for k := int32(0); k < n; k++ {
		counts[PartitionOf(k, npart)]++
	}
	for p, c := range counts {
		if c < n/npart/2 || c > n/npart*2 {
			t.Fatalf("partition %d has %d of %d keys", p, c, n)
		}
	}
}

func TestFineHashIndependentOfPartition(t *testing.T) {
	// Keys in the same partition must still spread over fine-hash bits.
	const npart = 60
	var zeros, ones int
	for k := int32(0); k < 100000; k++ {
		if PartitionOf(k, npart) != 7 {
			continue
		}
		if FineHash(k)&1 == 0 {
			zeros++
		} else {
			ones++
		}
	}
	total := zeros + ones
	if total < 100 {
		t.Fatalf("too few keys in partition: %d", total)
	}
	if zeros < total/4 || ones < total/4 {
		t.Fatalf("fine hash bit skewed within a partition: %d/%d", zeros, ones)
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	x := uint64(0x12345678)
	base := Mix64(x)
	for bit := 0; bit < 64; bit += 7 {
		diff := base ^ Mix64(x^(1<<bit))
		n := 0
		for d := diff; d != 0; d &= d - 1 {
			n++
		}
		if n < 16 || n > 48 {
			t.Fatalf("bit %d: only %d output bits flipped", bit, n)
		}
	}
}
