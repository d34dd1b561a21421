package core

import (
	"testing"
	"time"

	"streamjoin/internal/join"
)

// liveConfig is a short wall-clock configuration for live-engine tests.
func liveConfig() Config {
	cfg := DefaultConfig()
	cfg.Slaves = 2
	cfg.Rate = 800
	cfg.WindowMs = 3_000
	cfg.DistEpochMs = 200
	cfg.ReorgEpochMs = 1_000
	cfg.DurationMs = 4_000
	cfg.WarmupMs = 1_000
	cfg.Theta = 32 * 1024
	cfg.Domain = 20_000
	return cfg
}

func TestRunLiveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	res, err := RunLive(liveConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs == 0 {
		t.Fatal("live cluster produced no outputs")
	}
	if res.EpochsServed < 10 {
		t.Fatalf("epochs served = %d", res.EpochsServed)
	}
	// Pre-saturation the delay tracks the distribution epoch.
	if res.MeanDelay() <= 0 || res.MeanDelay() > 2*time.Second {
		t.Fatalf("mean delay = %v", res.MeanDelay())
	}
	t.Logf("live: outputs=%d delay=%v epochs=%d", res.Outputs, res.MeanDelay(), res.EpochsServed)
}

// TestRunLiveScanAblation runs the live engine with the ModeScan ablation
// prober (the paper's nested-loop algorithm) and checks it still produces
// outputs, keeping the ModeHash-vs-ModeScan benchmark comparison honest.
func TestRunLiveScanAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	cfg := liveConfig()
	cfg.LiveProber = join.ModeScan
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs == 0 {
		t.Fatal("scan-ablation live cluster produced no outputs")
	}
}

func TestRunLiveWithMovements(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	cfg := liveConfig()
	cfg.Slaves = 2
	cfg.Rate = 2_000
	cfg.DurationMs = 6_000
	cfg.WarmupMs = 1_000
	// Make slave 0 slow for real: live mode has no simulated background
	// load, so instead provoke movements with a tiny supplier threshold.
	cfg.ThSup = 0.02
	cfg.ThCon = 0.0001
	res, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs == 0 {
		t.Fatal("no outputs")
	}
	t.Logf("live movements: issued=%d done=%d", res.MovesIssued, res.MovesCompleted)
}

// TestRunLiveSourceDropsAccounted starves the ingest edge on purpose — a
// 64-tuple channel under 10 000 tuples/s — and checks that no tuple vanishes
// unaccounted: everything the sources offered was either handed to the
// master, counted as dropped, or is still sitting in the channel, and the
// drop count reaches the Result.
func TestRunLiveSourceDropsAccounted(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	cfg := liveConfig()
	cfg.Rate = 5_000
	cfg.DurationMs = 2_000
	cfg.WarmupMs = 500
	in := newLiveIngestor(64)
	res, err := runLive(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	offered, dropped := in.offered.Load(), in.dropped.Load()
	if dropped == 0 {
		t.Fatalf("no drops with a 64-tuple channel under %d offered tuples — the test is vacuous", offered)
	}
	if got := in.pulled + dropped + int64(len(in.ch)); got != offered {
		t.Errorf("offered %d != ingested %d + dropped %d + queued %d", offered, in.pulled, dropped, len(in.ch))
	}
	if res.SourceDropped != dropped {
		t.Errorf("Result.SourceDropped = %d, want %d", res.SourceDropped, dropped)
	}
	t.Logf("offered %d, ingested %d, dropped %d", offered, in.pulled, dropped)
}
