package bmodel

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// goldenDraws pins the exact value streams of the generator: an FNV-64a over
// the first 100 000 Next values of every (bias, domain, seed) below, in loop
// order. Every figure, every simulator result and every benchmark input is a
// function of these streams, so a change to Next that alters one of these
// constants changes all of them; an optimisation must leave them as they are.
var goldenDraws = []uint64{
	// b = 0.5; per domain, seeds 1 and 0x5eed
	0xb2da5b69010df525, 0xb2da5b69010df525, // domain 1
	0xe234ac54531d9b06, 0x43677872f75487d6, // domain 3
	0x4a4f98b83060129d, 0x1a03e6999e527695, // domain 999 983
	0x58b4e5e41f3c3066, 0xda8e1399bcd9fc45, // domain 2^11
	0xa45a9c7a5f7cc223, 0xbe7076e9faa478f9, // domain 2^17
	0xc390a4e0ab0f8982, 0x6bafa896a7a2259c, // domain 2^23
	0x42833beb2356fa51, 0xc775dcd6cdcfddbc, // domain 10^7
	// b = 0.7; per domain, seeds 1 and 0x5eed
	0xb2da5b69010df525, 0xb2da5b69010df525, // domain 1
	0x6c912d9a5a2cdcf7, 0x2fc4dcb2dbd47b04, // domain 3
	0x5405752cfbb75a51, 0xe05c3cc25e045392, // domain 999 983
	0xfd0b040cd57d0c3b, 0x8a0cb1516b9017c1, // domain 2^11
	0xf64fe03f0a3ace17, 0x33e31c4cb1a51da8, // domain 2^17
	0x606f11e35b02158d, 0xe7d6428b9fa00997, // domain 2^23
	0x75fdca0552970122, 0x6e0ba531c28bd8dd, // domain 10^7
	// b = 0.99; per domain, seeds 1 and 0x5eed
	0xb2da5b69010df525, 0xb2da5b69010df525, // domain 1
	0x0824cb966713a3a6, 0x38e27af682aab1d4, // domain 3
	0x2245a519f23aa424, 0xef8244279642b9d7, // domain 999 983
	0xf2682cb65f3578fe, 0x0a3737685dbe4ffd, // domain 2^11
	0x0b3d02c3093d57ec, 0xc8f9646018885e60, // domain 2^17
	0x5bf7f8e54afc2916, 0x902e5cf1c41acf0a, // domain 2^23
	0x4b92771a737a8398, 0x55e05ffbf714f6f8, // domain 10^7
}

var (
	goldenBiases  = []float64{0.5, 0.7, 0.99}
	goldenDomains = []int32{1, 3, 999_983, 1 << 11, 1 << 17, 1 << 23, 10_000_000}
	goldenSeeds   = []uint64{1, 0x5eed}
)

func TestGenGoldenDraws(t *testing.T) {
	var got []uint64
	var buf [4]byte
	for _, b := range goldenBiases {
		for _, d := range goldenDomains {
			for _, seed := range goldenSeeds {
				g := New(b, d, seed)
				h := fnv.New64a()
				for i := 0; i < 100_000; i++ {
					binary.LittleEndian.PutUint32(buf[:], uint32(g.Next()))
					h.Write(buf[:])
				}
				sum := h.Sum64()
				if k := len(got); k < len(goldenDraws) && goldenDraws[k] != sum {
					t.Errorf("b=%v domain=%d seed=%#x: draws hash %#016x, want %#016x", b, d, seed, sum, goldenDraws[k])
				}
				got = append(got, sum)
			}
		}
	}
	if len(got) != len(goldenDraws) {
		for _, s := range got {
			t.Logf("%#016x,", s)
		}
		t.Fatalf("%d golden hashes recorded, want %d", len(goldenDraws), len(got))
	}
}
