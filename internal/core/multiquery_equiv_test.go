package core

import (
	"testing"

	"streamjoin/internal/join"
)

// The multi-query equivalence test: the same deterministic epoch schedule as
// the multi-worker test — master-style tuple batches plus a mid-run state
// transfer, shipped over real TCP into a W=4 workerSet — is run once per
// configuration: single-query hash, single-query scan, two identical hash
// queries, and a {hash, scan} pair sharing one window set. Because every
// query probes the same ingested windows, each query's per-group round trace
// must be bit-identical to the corresponding single-query baseline, and two
// identical queries must trace identically to each other.

// mqProbeSig strips a round signature down to the fields a query owns:
// shared round work (ingest, expiry, tuning) is charged to the first
// registered query's result only, so secondary queries are compared on
// their probe output alone.
func mqProbeSig(s epochSig) epochSig {
	return epochSig{Outputs: s.Outputs, Scanned: s.Scanned, PairsHash: s.PairsHash}
}

// TestMultiQueryEquivalence is the multi-query acceptance test: N queries
// over one shared ingested window set produce exactly the output of N
// separate single-query runs, over real TCP with W=4 workers and a mid-run
// state transfer.
func TestMultiQueryEquivalence(t *testing.T) {
	cfg := mwConfig()
	const epochs = 24
	msgs := mwSchedule(t, &cfg, epochs)

	// Single-query baselines, one per prober (query 0 from LiveProber).
	scanCfg := cfg
	scanCfg.LiveProber = join.ModeScan
	baseHash := runMultiWorker(t, cfg, msgs, 4)
	baseScan := runMultiWorker(t, scanCfg, msgs, 4)

	// Two identical hash queries: identical per-group pair traces.
	twinCfg := cfg
	twinCfg.Queries = []QuerySpec{
		{ID: 0, Prober: join.ModeHash},
		{ID: 1, Prober: join.ModeHash},
	}
	twin := runMultiWorker(t, twinCfg, msgs, 4)
	total := compareTraces(t, "twin q0 vs q1", cfg.NumGroups(),
		twin.traces[0], twin.traces[1], mqProbeSig)

	// A {hash, scan} pair: each query matches its single-query baseline.
	// Query 0 carries the shared round costs (ingest, expiry, tuning) like
	// a single-query run does, so it must match bit-for-bit; the scan
	// query is compared on its probe output.
	mixCfg := cfg
	mixCfg.Queries = []QuerySpec{
		{ID: 0, Prober: join.ModeHash},
		{ID: 7, Prober: join.ModeScan},
	}
	mix := runMultiWorker(t, mixCfg, msgs, 4)
	compareTraces(t, "mixed hash vs baseline", cfg.NumGroups(),
		mix.traces[0], baseHash.traces[0], fullSig)
	compareTraces(t, "mixed scan vs baseline", cfg.NumGroups(),
		mix.traces[7], baseScan.traces[0], mqProbeSig)

	// The twin run must also reproduce the hash baseline, so all four runs
	// agree on the join's output.
	compareTraces(t, "twin vs baseline", cfg.NumGroups(),
		twin.traces[0], baseHash.traces[0], fullSig)

	if total == 0 {
		t.Fatal("vacuous schedule: no outputs")
	}
	// Sanity: the scan and hash baselines agree on total outputs
	// (different Scanned, same pairs).
	outs := func(tr map[int32][]epochSig) (n int64) {
		for _, rounds := range tr {
			for _, r := range rounds {
				n += r.Outputs
			}
		}
		return n
	}
	if outs(baseHash.traces[0]) != outs(baseScan.traces[0]) {
		t.Fatalf("hash baseline %d outputs vs scan baseline %d",
			outs(baseHash.traces[0]), outs(baseScan.traces[0]))
	}
	t.Logf("multi-query ≡ single-query: %d outputs per query over %d groups", total, cfg.NumGroups())
}
