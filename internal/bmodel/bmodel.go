// Package bmodel generates join-attribute values following the b-model of
// Wang, Ailamaki and Faloutsos ("Capturing the spatio-temporal behavior of
// real traffic data"), the skew model the paper uses for its synthetic
// streams. The b-model is the self-similar generalization of the database
// "80/20 law": at every recursive halving of the value domain, a fraction b
// of the probability mass falls into one half and 1−b into the other.
//
// A draw descends the halving tree: at each level it picks the hot half with
// probability b. Which half is hot at each level is fixed per generator
// (derived from the seed), so repeated draws produce a stable skewed
// distribution rather than a random walk.
package bmodel

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// Gen draws values in [0, Domain) with b-model skew.
type Gen struct {
	domain int32
	hot    uint64 // level l's hot half is the upper half iff bit l is set
	thr    uint64 // b·2^53: a level takes its hot half iff the low 53 bits of its word are below thr
	rng    *rand.PCG
}

// New returns a generator with bias b in [0.5, 1) over [0, domain). b = 0.5
// degenerates to the uniform distribution; the paper's default is b = 0.7.
func New(b float64, domain int32, seed uint64) *Gen {
	if !(b >= 0.5 && b < 1) {
		panic(fmt.Sprintf("bmodel: bias %v out of [0.5, 1)", b))
	}
	if domain < 1 {
		panic("bmodel: domain must be positive")
	}
	return &Gen{
		domain: domain,
		hot:    splitmix(seed),
		thr:    uint64(b * (1 << 53)),
		rng:    rand.NewPCG(seed, pcgStream),
	}
}

// pcgStream is the second PCG seed word of every generator.
const pcgStream = 0x6a09e667f3bcc909

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Next draws one value. Each level of the descent consumes one PCG word x
// and takes the hot half iff x's low 53 bits are below thr — exactly the test
// rand.Rand.Float64() < b, since Float64 is those 53 bits over 2^53 and
// b·2^53 is an integer for b in [0.5, 1). The descent keeps the interval as
// [lo, lo+n) and updates it through a mask rather than a branch: the taken
// half is a coin flip the branch predictor cannot learn.
func (g *Gen) Next() int32 {
	lo, n := int32(0), g.domain
	hot, thr := g.hot, g.thr
	for n > 1 {
		x := g.rng.Uint64() << 11 >> 11
		take := (x - thr) >> 63               // 1 iff x < thr: this level takes its hot half
		upper := -int32((take ^ hot ^ 1) & 1) // all ones iff the taken half is the upper one
		half := n >> 1                        // the lower half [lo, lo+half) is never the larger
		lo += half & upper
		n = half + n&1&upper
		hot = bits.RotateLeft64(hot, -1)
	}
	return lo
}
