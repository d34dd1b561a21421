package join

import (
	"testing"

	"streamjoin/internal/tuple"
)

// steadyGen produces a deterministic, periodic steady-state workload: every
// epoch carries the same number of tuples, evenly spaced in time, and the
// key pattern repeats with period keyPeriod epochs. Once the window spans a
// whole period, the module's state (table sizes, run classes, block counts,
// match counts) is periodic too — so after a settling phase covering a few
// periods, rounds can allocate nothing new.
type steadyGen struct {
	batch     []tuple.Tuple
	epochMs   int32
	keyPeriod int
	domain    uint64
}

func newSteadyGen(perEpoch int, epochMs int32) *steadyGen {
	return &steadyGen{
		batch:     make([]tuple.Tuple, perEpoch),
		epochMs:   epochMs,
		keyPeriod: 16,
		domain:    4096,
	}
}

// fill returns epoch i's batch, reusing the generator's buffer.
func (g *steadyGen) fill(i int) []tuple.Tuple {
	phase := uint64(i % g.keyPeriod)
	base := int32(i) * g.epochMs
	n := int32(len(g.batch))
	for j := range g.batch {
		key := int32(tuple.Mix64(phase<<32|uint64(j)) % g.domain)
		g.batch[j] = tuple.Tuple{
			Stream: tuple.StreamID(j & 1),
			Key:    key,
			TS:     base + int32(j)*g.epochMs/n,
		}
	}
	return g.batch
}

// testSteadyStateAllocs asserts the tentpole's zero-allocation property:
// once warm, a count-only processing round — partitioning, probing,
// ingestion, index maintenance, block expiry — allocates nothing.
func testSteadyStateAllocs(t *testing.T, mode Mode) {
	const epochMs = 500
	cfg := Config{
		WindowMs: 8 * epochMs,
		FineTune: false,        // steady state: tuning would be a one-off transient
		Expiry:   ExpiryBlocks, // the live engine's policy
		Queries:  []QueryConfig{{Mode: mode, CountOnly: true}},
	}
	m := MustNew(cfg)
	g := newSteadyGen(256, epochMs)
	epoch := 0
	step := func() {
		batch := g.fill(epoch)
		epoch++
		m.Process(0, int32(epoch)*epochMs, batch)
	}
	// Settle across several key periods plus the window span so every pooled
	// structure reaches its periodic maximum.
	for i := 0; i < 4*g.keyPeriod; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(2*g.keyPeriod, step); allocs != 0 {
		t.Fatalf("steady-state %v round allocates %v per round, want 0", mode, allocs)
	}
}

func TestSteadyStateRoundAllocsHash(t *testing.T) { testSteadyStateAllocs(t, ModeHash) }
func TestSteadyStateRoundAllocsScan(t *testing.T) { testSteadyStateAllocs(t, ModeScan) }

// TestSteadyStateAllocsWithDiscardSink covers the materializing hand-off:
// with a synchronous recycling sink, pair materialization and delivery stay
// allocation-free too.
func TestSteadyStateAllocsWithDiscardSink(t *testing.T) {
	const epochMs = 500
	cfg := Config{
		WindowMs: 8 * epochMs,
		Mode:     ModeHash,
		Expiry:   ExpiryBlocks,
		Sink:     DiscardSink{},
	}
	m := MustNew(cfg)
	g := newSteadyGen(256, epochMs)
	epoch := 0
	step := func() {
		batch := g.fill(epoch)
		epoch++
		m.Process(0, int32(epoch)*epochMs, batch)
	}
	for i := 0; i < 4*g.keyPeriod; i++ {
		step()
	}
	if allocs := testing.AllocsPerRun(2*g.keyPeriod, step); allocs != 0 {
		t.Fatalf("steady-state materializing round allocates %v per round, want 0", allocs)
	}
}
