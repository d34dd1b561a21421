package core

import (
	"net"
	"sync"
	"testing"

	"streamjoin/internal/collect"
	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/wire"
)

// TestSocketSinkEquivalence is the tentpole acceptance test: the pairs a
// downstream consumer receives over real TCP (decoded by the same
// collect.Tally the sjoin-collect binary runs) are identical, as a
// per-group multiset, to what an in-process SinkFunc sees — under W=4 join
// workers, a mid-run state transfer, and fine-tuning splits and merges.
func TestSocketSinkEquivalence(t *testing.T) {
	cfg := mwConfig()
	const epochs = 20
	msgs := mwSchedule(t, &cfg, epochs)
	// Idle tail epochs: with no input the windows expire out, shrinking the
	// fine-tuning buckets below θ so buddy merges fire mid-run too.
	shutdown := msgs[len(msgs)-1]
	msgs = msgs[:len(msgs)-1]
	for e := epochs; e < epochs+6; e++ {
		msgs = append(msgs, &wire.Batch{Epoch: int64(e)})
	}
	msgs = append(msgs, shutdown)

	// Run A: in-process SinkFunc (the callback must copy: the buffer is the
	// module's, recycled as soon as it returns).
	msA := pairMultiset[groupPair]{}
	var muA sync.Mutex
	cfgA := cfg
	cfgA.Sink = join.SinkFunc(func(g int32, pairs []join.Pair) {
		muA.Lock()
		for _, p := range pairs {
			msA[groupPair{g, p}]++
		}
		muA.Unlock()
	})
	outA := runMultiWorker(t, cfgA, msgs, 4)

	// Run B: SocketSink over a real TCP connection into collect.Tally.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	msB := pairMultiset[groupPair]{}
	tally := collect.New(func(pb *wire.PairBatch) {
		for _, p := range pb.Pairs {
			msB[groupPair{pb.Group, join.Pair{Probe: p.Probe, Stored: p.Stored}}]++
		}
	})
	readErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			readErr <- err
			return
		}
		defer c.Close()
		readErr <- tally.Consume(c)
	}()
	sc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sink := engine.NewSocketSink(nil, sc, 0, 0)
	cfgB := cfg
	cfgB.Sink = sink
	outB := runMultiWorker(t, cfgB, msgs, 4)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-readErr; err != nil {
		t.Fatal(err)
	}

	// The two runs executed identical rounds...
	compareTraces(t, "SocketSink vs SinkFunc", cfg.NumGroups(), outB.traces[0], outA.traces[0], fullSig)
	// ...that were not vacuous: real parallelism, a populated mid-run
	// transfer, and fine tuning in both directions.
	var splits, merges int
	for _, trace := range outA.traces[0] {
		for _, r := range trace {
			splits += r.Splits
			merges += r.Merges
		}
	}
	if splits == 0 || merges == 0 {
		t.Fatalf("vacuous fine tuning: %d splits, %d merges", splits, merges)
	}

	// The delivered pairs are the same per-group multiset.
	groups := make(map[int32]bool)
	for gp := range msA {
		groups[gp.group] = true
	}
	if msA.total() == 0 || len(groups) < 2 {
		t.Fatalf("vacuous run: %d pairs over %d groups", msA.total(), len(groups))
	}
	if missing, extra := msB.diff(msA); missing > 0 || extra > 0 {
		t.Fatalf("pair multisets diverged: %d pairs via SinkFunc missing from the socket, %d extra (%d vs %d pairs)",
			missing, extra, msA.total(), msB.total())
	}
	if got := tally.Pairs(); got != int64(msA.total()) {
		t.Fatalf("tally counted %d pairs, multiset has %d", got, msA.total())
	}
	t.Logf("socket sink ≡ SinkFunc: %d pairs over %d groups, %d splits, %d merges",
		msA.total(), len(groups), splits, merges)
}
