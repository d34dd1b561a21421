// Command sjoin-benchsweep drives the live engine across a rate × workers
// grid at Table-I workload parameters (skew 0.7, domain 10M, θ = 1.5 MB;
// window and epochs shrunk to wall-clock-friendly defaults) and emits the
// same machine-readable JSON as sjoin-benchjson — one record per grid cell.
// Two scenarios share the grid:
//
//   - sweep (default): steady-state throughput/delay curves, one record per
//     cell named LiveSweep/rate=R/workers=W. CI uploads the result as
//     BENCH_PR5.json, so the perf record carries regression *curves* (how
//     throughput and delay respond to load and parallelism) rather than the
//     single spot values of the bench-smoke job.
//
//   - reorg: forced mid-run partition-group movement over few, large groups,
//     one record per cell named LiveReorg/rate=R/workers=W. Each record
//     carries the reorganization stall time and the p99 epoch-servicing
//     latency, so the uploaded BENCH_PR10.json shows what a movement costs
//     the epoch cadence.
//
//     sjoin-benchsweep -rates 750,1500,3000 -workers 1,2,4 -o BENCH_PR5.json
//     sjoin-benchsweep -scenario reorg -o BENCH_PR10.json
//
// Every cell is a full live run — master, slaves, collector on goroutines,
// real join modules — so a regression anywhere in the pipeline bends the
// curves. Durations are wall-clock: the default grid takes about
// rates×workers×(-duration) to run (times -reps for -scenario reorg).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"streamjoin"
	"streamjoin/internal/benchfmt"
)

func main() {
	scenario := flag.String("scenario", "sweep", `grid scenario: "sweep" (steady-state curves) or "reorg" (forced mid-run movement)`)
	rates := flag.String("rates", "750,1500,3000", "comma-separated per-stream arrival rates (tuples/sec)")
	workers := flag.String("workers", "1,2,4", "comma-separated join-worker counts per slave")
	slaves := flag.Int("slaves", 2, "slave nodes per run")
	window := flag.Duration("window", 5*time.Second, "sliding window W")
	domain := flag.Int("domain", 100_000, "join-attribute domain (shrunk with the window so the match rate stays Table-I-like)")
	td := flag.Duration("td", 500*time.Millisecond, "distribution epoch")
	duration := flag.Duration("duration", 8*time.Second, "wall-clock run length per grid cell")
	warmup := flag.Duration("warmup", 3*time.Second, "warm-up discarded from metrics")
	seed := flag.Uint64("seed", 1, "workload seed")
	reps := flag.Int("reps", 1, "repetitions per reorg cell; the reported latency metrics are the best (least noise-contaminated) of the reps")
	out := flag.String("o", "", `output file ("-" for stdout; default BENCH_PR5.json for sweep, BENCH_PR10.json for reorg)`)
	flag.Parse()

	if *out == "" {
		if *scenario == "reorg" {
			*out = "BENCH_PR10.json"
		} else {
			*out = "BENCH_PR5.json"
		}
	}
	rateVals, err := parseFloats(*rates)
	if err != nil {
		fatal(fmt.Errorf("-rates: %w", err))
	}
	workerVals, err := parseInts(*workers)
	if err != nil {
		fatal(fmt.Errorf("-workers: %w", err))
	}

	sum := &benchfmt.Summary{Context: map[string]string{
		"driver":   "sjoin-benchsweep",
		"scenario": *scenario,
		"goos":     runtime.GOOS,
		"goarch":   runtime.GOARCH,
		"cpus":     strconv.Itoa(runtime.NumCPU()),
		"slaves":   strconv.Itoa(*slaves),
		"domain":   strconv.Itoa(*domain),
		"window":   window.String(),
		"td":       td.String(),
		"duration": duration.String(),
		"warmup":   warmup.String(),
	}}
	for _, rate := range rateVals {
		for _, w := range workerVals {
			var res benchfmt.Result
			var err error
			switch *scenario {
			case "sweep":
				res, err = runCell(*slaves, rate, w, int32(*domain), *window, *td, *duration, *warmup, *seed)
			case "reorg":
				res, err = runReorgCell(*slaves, rate, w, int32(*domain), *window, *td, *duration, *warmup, *seed, *reps)
			default:
				err = fmt.Errorf("unknown scenario %q (want sweep or reorg)", *scenario)
			}
			if err != nil {
				fatal(fmt.Errorf("rate=%g workers=%d: %w", rate, w, err))
			}
			sum.Benchmarks = append(sum.Benchmarks, res)
			fmt.Fprintf(os.Stderr, "sjoin-benchsweep: %s: %s\n", res.Name, headline(*scenario, res))
		}
	}

	enc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "sjoin-benchsweep: wrote %d grid cells to %s\n", len(sum.Benchmarks), *out)
}

func headline(scenario string, res benchfmt.Result) string {
	ingest := fmt.Sprintf("ingested %.0f of %.0f offered tuples/sec (%.0f dropped)",
		res.Metrics["ingested_tuples_per_s"], res.Metrics["offered_tuples_per_s"], res.Metrics["dropped_tuples_per_s"])
	if scenario == "reorg" {
		return fmt.Sprintf("%.0f moves, max stall %.1f ms (total %.1f), p99 epoch %.1f ms, %s",
			res.Metrics["moves"], res.Metrics["stall-ms"], res.Metrics["stall-total-ms"], res.Metrics["p99-epoch-ms"], ingest)
	}
	return fmt.Sprintf("%.0f outputs/sec, delay %.1f ms, %s",
		res.Metrics["outputs/sec"], res.Metrics["delay-ms"], ingest)
}

// addIngest records what the sources offered, what the master ingested and
// what the sources dropped because the master fell behind, in tuples/sec of
// both streams over the whole run (the source counters are not reset at the
// warm-up boundary). Outputs grow with the square of the ingested rate, so
// when they fall short of that curve the drop column says why.
func addIngest(m map[string]float64, res *streamjoin.Result, duration time.Duration) {
	sec := duration.Seconds()
	m["offered_tuples_per_s"] = float64(res.SourceOffered) / sec
	m["ingested_tuples_per_s"] = float64(res.SourceOffered-res.SourceDropped) / sec
	m["dropped_tuples_per_s"] = float64(res.SourceDropped) / sec
}

// baseCell is the Config every grid cell starts from.
func baseCell(slaves int, rate float64, workers int, domain int32, window, td, duration, warmup time.Duration, seed uint64) streamjoin.Config {
	cfg := streamjoin.DefaultConfig()
	cfg.Slaves = slaves
	cfg.Rate = rate
	cfg.Workers = workers
	cfg.Domain = domain
	cfg.Seed = seed
	cfg.WindowMs = int32(window / time.Millisecond)
	cfg.DistEpochMs = int32(td / time.Millisecond)
	cfg.ReorgEpochMs = 5 * cfg.DistEpochMs
	cfg.DurationMs = int32(duration / time.Millisecond)
	cfg.WarmupMs = int32(warmup / time.Millisecond)
	return cfg
}

// runCell executes one live run of the steady-state grid and folds it into a
// benchmark record. The workload knobs stay at the Table-I defaults (skew,
// domain, θ, fine tuning); only the swept axes and the wall-clock scale move.
func runCell(slaves int, rate float64, workers int, domain int32, window, td, duration, warmup time.Duration, seed uint64) (benchfmt.Result, error) {
	cfg := baseCell(slaves, rate, workers, domain, window, td, duration, warmup, seed)
	res, err := streamjoin.RunLive(cfg)
	if err != nil {
		return benchfmt.Result{}, err
	}
	measuredSec := (duration - warmup).Seconds()
	r := benchfmt.Result{
		Name:       fmt.Sprintf("LiveSweep/rate=%g/workers=%d", rate, workers),
		Iterations: 1,
		Metrics: map[string]float64{
			"outputs":     float64(res.Outputs),
			"outputs/sec": float64(res.Outputs) / measuredSec,
			"delay-ms":    float64(res.MeanDelay()) / float64(time.Millisecond),
			"cpu-sec":     res.AvgSlaveCPU().Seconds(),
			"comm-sec":    res.AggregateComm().Seconds(),
		},
	}
	addIngest(r.Metrics, res, duration)
	return r, nil
}

// runReorgCell executes the forced-reorganization run of one grid cell.
// Movement is forced through the heterogeneous-memory seam (§V-B): slave 0
// gets a window-memory bound far below its fair share, so its reported
// occupancy pins near 1 and every reorganization boundary classifies it as a
// supplier shedding a group to an unbounded consumer — real occupancy
// arithmetic, not a synthetic hook. The partition count is lowered so each
// moved group carries a large window and the transfer cost is visible in the
// epoch-latency tail.
func runReorgCell(slaves int, rate float64, workers int, domain int32, window, td, duration, warmup time.Duration, seed uint64, reps int) (benchfmt.Result, error) {
	if reps < 1 {
		reps = 1
	}
	var best map[string]float64
	for rep := 0; rep < reps; rep++ {
		cfg := baseCell(slaves, rate, workers, domain, window, td, duration, warmup, seed)
		cfg.Partitions = 4 // few, large groups: each movement carries real state
		cfg.SlaveMemBytes = []int64{256 << 10}
		// First reorganization boundary at mid-run, when the shed groups
		// have accumulated a full half-run of window state — movements of
		// freshly started, near-empty groups would measure nothing.
		epochs := int64(duration / td)
		cfg.ReorgEpochMs = int32(epochs/2) * cfg.DistEpochMs
		res, err := streamjoin.RunLive(cfg)
		if err != nil {
			return benchfmt.Result{}, err
		}
		measuredSec := (duration - warmup).Seconds()
		metrics := map[string]float64{
			"outputs":        float64(res.Outputs),
			"outputs/sec":    float64(res.Outputs) / measuredSec,
			"delay-ms":       float64(res.MeanDelay()) / float64(time.Millisecond),
			"moves":          float64(res.MovesCompleted),
			"stall-ms":       float64(res.XferStallMax()) / float64(time.Millisecond),
			"stall-total-ms": float64(res.XferStallTotal()) / float64(time.Millisecond),
			"p99-epoch-ms":   float64(res.EpochP99()) / float64(time.Millisecond),
		}
		addIngest(metrics, res, duration)
		// Best-of-reps per latency metric: scheduling noise (GC pauses,
		// core contention) only ever inflates a stall or a quantile, so
		// the minimum across identical runs is the cleanest measurement —
		// the usual benchmark discipline applied per metric.
		if best == nil {
			best = metrics
			continue
		}
		for _, k := range []string{"delay-ms", "stall-ms", "stall-total-ms", "p99-epoch-ms"} {
			best[k] = math.Min(best[k], metrics[k])
		}
		for _, k := range []string{"outputs", "outputs/sec", "moves"} {
			best[k] = math.Max(best[k], metrics[k])
		}
	}
	return benchfmt.Result{
		Name:       fmt.Sprintf("LiveReorg/rate=%g/workers=%d", rate, workers),
		Iterations: int64(reps),
		Metrics:    best,
	}, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sjoin-benchsweep:", err)
	os.Exit(1)
}
