// Package streamjoin is a parallel sliding-window stream join for
// shared-nothing clusters, reproducing Chakraborty & Singh, "Parallelizing
// Windowed Stream Joins in a Shared-Nothing Cluster" (IEEE CLUSTER 2013,
// arXiv:1307.6574).
//
// A master node hash-partitions two input streams into partition-groups and
// distributes them to slave nodes on a fixed per-epoch communication
// schedule; slaves run windowed join modules with fine-grained partition
// tuning (extendible hashing), report buffer occupancy, and move
// partition-group state between suppliers and consumers under the master's
// control, which also adapts the degree of declustering.
//
// Two engines execute the same protocol code:
//
//   - RunSimulation runs on a deterministic discrete-event cluster model
//     calibrated to the paper's testbed; the experiment API regenerates
//     every figure of the paper's evaluation on it.
//   - RunLive runs on real goroutines with in-process rendezvous
//     connections; its join probes a per-bucket hash index by default,
//     with the paper's nested-loop scan (ProberScan) as the ablation
//     baseline. The cmd/sjoin-master and cmd/sjoin-slave binaries deploy
//     the same code over TCP.
//
// Quickstart:
//
//	cfg := streamjoin.DefaultConfig()
//	cfg.Slaves = 4
//	cfg.Rate = 3000
//	res, err := streamjoin.RunSimulation(cfg)
//	if err != nil { ... }
//	fmt.Println(res.MeanDelay(), res.Outputs)
package streamjoin

import (
	"streamjoin/internal/core"
	"streamjoin/internal/experiment"
	"streamjoin/internal/join"
)

// Live prober modes, for Config.LiveProber (query 0's prober when
// Config.Queries is empty) or Config.Queries[i].Prober; on the command
// line, the PROBER of -query ID:PROBER:SINK. The hash-index prober emits matching
// pairs in O(matches) per probe and is the default; the scan prober is the
// paper's block-nested-loop algorithm, kept as the ablation baseline.
const (
	ProberHash = join.ModeHash
	ProberScan = join.ModeScan
)

// Pair is one materialized join output (probing tuple plus the stored
// window tuple it matched).
type Pair = join.Pair

// Sink is a pluggable consumer for materialized pairs, set through
// Config.Sink (query 0's when Config.Queries is empty) or
// Config.Queries[i].Sink. Emit receives ownership of a pooled buffer and hands one
// back for recycling by returning it; see the join.Sink contract. With
// Config.Workers > 1 the sink is called concurrently from every join
// worker and must be safe for concurrent use.
type Sink = join.Sink

// SinkFunc adapts a synchronous callback to a Sink; the callback must not
// retain the slice.
type SinkFunc = join.SinkFunc

// DiscardSink materializes-then-drops every pair (the emission-cost
// baseline with free delivery).
type DiscardSink = join.DiscardSink

// ChanSink forwards pair batches to a consumer goroutine with backpressure;
// Emitted is its delivery unit. Consumers return exhausted buffers with
// Done to keep the join workers allocation-free. The producer side owns
// closing C: close it only after RunLive/ServeSlaveTCP has returned, so a
// `for e := range sink.C` consumer drains and exits cleanly.
type (
	ChanSink = join.ChanSink
	Emitted  = join.Emitted
)

// NewChanSink returns a ChanSink whose delivery channel buffers buf rounds.
func NewChanSink(buf int) *ChanSink { return join.NewChanSink(buf) }

// Config holds every knob of the system; see DefaultConfig for the paper's
// Table I defaults.
type Config = core.Config

// Result carries every measured metric of a run.
type Result = core.Result

// CostModel is the simulated CPU cost model.
type CostModel = core.CostModel

// RateStep is one step of a piecewise-constant workload rate schedule.
type RateStep = core.RateStep

// DoDSample records the degree of declustering at a reorganization point.
type DoDSample = core.DoDSample

// DefaultConfig returns the paper's Table I defaults.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultCostModel returns the calibrated simulated CPU cost model.
func DefaultCostModel() CostModel { return core.DefaultCostModel() }

// RunSimulation executes the system on the simulated cluster. It is
// deterministic for a given Config.
func RunSimulation(cfg Config) (*Result, error) { return core.RunSim(cfg) }

// RunLive executes the system on real goroutines with in-process
// connections; durations are wall-clock.
func RunLive(cfg Config) (*Result, error) { return core.RunLive(cfg) }

// Figure is a regenerated evaluation plot (data table).
type Figure = experiment.Figure

// FigureGenerator produces one of the paper's figures.
type FigureGenerator = experiment.Generator

// ExperimentOptions configures figure generation (scale, seed, progress).
type ExperimentOptions = experiment.Options

// Experiment fidelity scales.
const (
	// FullScale reproduces the paper's exact setup (10-minute windows,
	// 20-minute runs).
	FullScale = experiment.Full
	// QuickScale shrinks windows and runs for fast regeneration; shapes
	// are preserved.
	QuickScale = experiment.Quick
	// TinyScale is the benchmark smoke scale: trimmed sweeps, 90-second
	// runs.
	TinyScale = experiment.Tiny
)

// Figures lists the generators for Figures 5-14 of the paper.
func Figures() []FigureGenerator { return experiment.All() }

// LiveFigures lists the live-engine figure generators (wall-clock runs;
// currently the per-prober delay-histogram ablation, "live-hist").
func LiveFigures() []FigureGenerator { return experiment.LiveAll() }

// FigureByID returns a single figure generator ("fig5" .. "fig14").
func FigureByID(id string) (FigureGenerator, bool) { return experiment.ByID(id) }

// TableI renders the paper's default-parameter table.
func TableI() string { return experiment.TableI() }
