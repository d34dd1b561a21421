package bmodel

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func TestValuesInDomain(t *testing.T) {
	g := New(0.7, 10_000_000, 42)
	for i := 0; i < 100000; i++ {
		v := g.Next()
		if v < 0 || v >= 10_000_000 {
			t.Fatalf("value %d out of domain", v)
		}
	}
}

func TestNonPowerOfTwoDomain(t *testing.T) {
	for _, domain := range []int32{1, 2, 3, 7, 1000, 999983} {
		g := New(0.6, domain, 7)
		for i := 0; i < 1000; i++ {
			v := g.Next()
			if v < 0 || v >= domain {
				t.Fatalf("domain %d: value %d", domain, v)
			}
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := New(0.7, 1000000, 99)
	b := New(0.7, 1000000, 99)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(0.7, 1000000, 1)
	b := New(0.7, 1000000, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 100 {
		t.Fatalf("seeds 1 and 2 agree on %d of 1000 draws", same)
	}
}

// skewShare draws n values and returns the probability mass captured by the
// hottest fraction f of distinct drawn values.
func skewShare(b float64, n int, f float64) float64 {
	g := New(b, 1<<20, 123)
	counts := map[int32]int{}
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	all := make([]int, 0, len(counts))
	for _, c := range counts {
		all = append(all, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(all)))
	top := int(float64(len(all)) * f)
	if top < 1 {
		top = 1
	}
	sum := 0
	for _, c := range all[:top] {
		sum += c
	}
	return float64(sum) / float64(n)
}

func TestSkewIncreasesWithB(t *testing.T) {
	uniform := skewShare(0.5, 50000, 0.2)
	skewed := skewShare(0.7, 50000, 0.2)
	heavy := skewShare(0.9, 50000, 0.2)
	if !(uniform < skewed && skewed < heavy) {
		t.Fatalf("top-20%% shares not ordered: %.3f %.3f %.3f", uniform, skewed, heavy)
	}
	// b=0.9 approximates the 80/20 law over a deep domain: expect the top
	// 20% of values to hold well over half the mass.
	if heavy < 0.5 {
		t.Fatalf("b=0.9 top-20%% share = %.3f, want > 0.5", heavy)
	}
}

func TestUniformWhenBHalf(t *testing.T) {
	g := New(0.5, 1024, 5)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(g.Next())
	}
	mean := sum / n
	if math.Abs(mean-511.5) > 15 {
		t.Fatalf("b=0.5 mean = %.1f, want ~511.5", mean)
	}
}

func TestCollisionRateAboveUniform(t *testing.T) {
	// The whole point of the skew for a join: equal keys collide more often
	// than under the uniform distribution.
	collisions := func(b float64) int {
		g := New(b, 1<<20, 9)
		seen := map[int32]bool{}
		c := 0
		for i := 0; i < 20000; i++ {
			v := g.Next()
			if seen[v] {
				c++
			}
			seen[v] = true
		}
		return c
	}
	if cu, cs := collisions(0.5), collisions(0.7); cs <= cu {
		t.Fatalf("skewed collisions %d not above uniform %d", cs, cu)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { New(0.4, 100, 1) },
		func() { New(1.0, 100, 1) },
		func() { New(math.NaN(), 100, 1) },
		func() { New(math.Inf(1), 100, 1) },
		func() { New(0.7, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// floatDescent is the b-model draw written the textbook way — a float
// comparison and a branch per level — kept as the specification Next must
// reproduce draw for draw.
func floatDescent(b float64, domain int32, hot uint64, rng *rand.Rand) int32 {
	lo, hi := int32(0), domain
	for level := uint(0); hi-lo > 1; level++ {
		mid := lo + (hi-lo)/2
		if hot>>(level%64)&1 == 1 == (rng.Float64() < b) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

func TestNextMatchesFloatDescent(t *testing.T) {
	for _, d := range []int32{1, 2, 3, 7, 1000, 1 << 11, 1 << 17, 999_983, 10_000_000, math.MaxInt32} {
		for _, b := range []float64{0.5, 0.7, 0.9, 0.99} {
			for seed := uint64(0); seed < 4; seed++ {
				g := New(b, d, seed)
				ref := rand.New(rand.NewPCG(seed, pcgStream))
				for i := 0; i < 5_000; i++ {
					if got, want := g.Next(), floatDescent(b, d, splitmix(seed), ref); got != want {
						t.Fatalf("b=%v domain=%d seed=%d draw %d: Next = %d, float descent = %d", b, d, seed, i, got, want)
					}
				}
			}
		}
	}
}
