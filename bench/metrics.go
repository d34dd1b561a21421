package main

import (
	"fmt"
	"math"
	"time"
)

// metricSpec declares one metric the benchmark prints. BENCHMARK.json at the
// repository root lists the same names, units and directions (a test keeps
// the two in step); bound is the share of the parent's median by which an
// end-to-end metric may get worse, and is 0 for per-layer metrics.
type metricSpec struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

var endToEnd = []metricSpec{
	{"ingested_tuples_per_s", "1/s", "higher", 0.05},
	{"ingested_share", "share", "higher", 0.05},
	{"delay_p50_ms", "ms", "lower", 0.10},
	{"delay_p99_ms", "ms", "lower", 0.15},
	{"cpu_s_per_mtuple", "s/Mtuple", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// Per-layer metrics, layer = module of the program. Those marked live are
// read from the Result or the sink after the untraced cluster run; the rest
// come from the traced single-goroutine replay.
var perLayer = []metricSpec{
	{"workload.gen_ns_per_tuple", "ns", "lower", 0},
	{"tuple.partition_ns_per_tuple", "ns", "lower", 0},
	{"wire.encode_ns_per_tuple", "ns", "lower", 0},
	{"wire.decode_ns_per_tuple", "ns", "lower", 0},
	{"wire.bytes_per_tuple", "B", "lower", 0},
	{"engine.tcp_ns_per_tuple", "ns", "lower", 0},
	{"engine.pipe_ns_per_tuple", "ns", "lower", 0},
	{"join.process_ns_per_tuple", "ns", "lower", 0},
	{"join.ns_per_pair", "ns", "lower", 0},
	{"join.pairs_per_tuple", "count", "lower", 0},
	{"join.scanned_per_tuple", "count", "lower", 0},
	{"join.expired_per_tuple", "count", "lower", 0},
	{"join.splits", "count", "lower", 0},
	{"sink.emit_ns_per_pair", "ns", "lower", 0},
	{"collect.result_ns_per_tuple", "ns", "lower", 0},
	{"replay.tuples_per_s", "1/s", "higher", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"core.unattributed_share", "share", "lower", 0},
	{"core.master_peak_buf_bytes", "B", "lower", 0},  // live
	{"core.master_comm_s", "s", "lower", 0},          // live
	{"core.window_bytes", "B", "lower", 0},           // live, pipes only
	{"core.epochs_late", "count", "lower", 0},        // live
	{"core.epoch_p99_ms", "ms", "lower", 0},          // live, pipes only
	{"core.slave_idle_share", "share", "higher", 0},  // live, pipes only
	{"core.outputs_per_s", "1/s", "higher", 0},       // live
	{"core.delay_mean_ms", "ms", "lower", 0},         // live
	{"engine.wire_bytes_per_tuple", "B", "lower", 0}, // live, TCP only
	{"engine.frames_per_epoch", "count", "lower", 0}, // live, TCP only
	{"process.peak_rss_mb", "MB", "lower", 0},        // live
	{"process.gc_cpu_share", "share", "lower", 0},    // live
}

// values maps metric names to measured values.
type values map[string]float64

// liveFigures are the quantities both output modes derive from a live run.
type liveFigures struct {
	offered, ingested int64   // tuples created in [countFrom, genEndMs)
	ingestedShare     float64 // ingested over offered
	ingestedPerS      float64 // over that interval
	// cpuPerS is the process CPU (getrusage user + system) per second of
	// the measured interval: the median over its one-second slices, which a
	// burst of runtime housekeeping or a noisy neighbour moves little.
	// cpuMeanPerS is the plain mean, printed beside it.
	cpuPerS, cpuMeanPerS float64
}

func (r *liveRun) figures(reg *regenerated) liveFigures {
	f := liveFigures{
		offered:  reg.offered(r.countFrom, r.genEndMs),
		ingested: ingestedTuples(r.res.Master, r.res.MovesIssued),
	}
	perSlice := make([]float64, len(r.slices)-1)
	for i := range perSlice {
		perSlice[i] = (r.slices[i+1].cpu - r.slices[i].cpu).Seconds()
	}
	f.cpuPerS = median(perSlice)
	first, last := r.slices[0], r.slices[len(r.slices)-1]
	f.cpuMeanPerS = (last.cpu - first.cpu).Seconds() / float64(len(perSlice))
	f.ingestedShare = float64(f.ingested) / float64(f.offered)
	f.ingestedPerS = float64(f.ingested) / (float64(r.genEndMs-r.countFrom) / 1000)
	return f
}

// endToEndValues computes every end-to-end metric but setup_s.
func (r *liveRun) endToEndValues(f liveFigures) values {
	return values{
		"ingested_tuples_per_s": f.ingestedPerS,
		"ingested_share":        f.ingestedShare,
		"delay_p50_ms":          r.sink.delays.quantile(0.50),
		"delay_p99_ms":          r.sink.delays.quantile(0.99),
		"cpu_s_per_mtuple":      f.cpuPerS / (f.ingestedPerS / 1e6),
	}
}

// liveLayerValues are the per-layer metrics read from the program's Result
// and the process after the untraced run.
func (r *liveRun) liveLayerValues(f liveFigures) values {
	res := r.res
	first, last := r.slices[0], r.slices[len(r.slices)-1]
	// The wall-clock the Result's counters cover: from the warm-up boundary
	// over pipes, from the start over TCP, to the return of the start call.
	resultS := (r.wall - r.sink.warmAt).Seconds()
	if r.w.tcp {
		resultS = r.wall.Seconds()
	}
	v := values{
		"core.master_peak_buf_bytes": float64(res.MasterPeakBufBytes),
		"core.master_comm_s":         res.Master.Comm.Seconds(),
		"core.window_bytes":          0,
		// The master serves epochs 0 … ⌊stop/t_d⌋, one more it had entered
		// before the stop, and the shutdown epoch; a master behind its
		// schedule has served fewer when the stop comes.
		"core.epochs_late":            float64(int64(r.genEndMs/distEpochMs)+3) - float64(res.EpochsServed),
		"core.epoch_p99_ms":           float64(res.EpochP99()) / float64(time.Millisecond),
		"core.slave_idle_share":       res.AvgSlaveIdle().Seconds() / resultS,
		"core.outputs_per_s":          float64(res.Outputs) / resultS,
		"core.delay_mean_ms":          float64(res.MeanDelay()) / float64(time.Millisecond),
		"engine.wire_bytes_per_tuple": float64(res.Master.WireBytesSent) / float64(f.ingested),
		"engine.frames_per_epoch":     float64(res.Master.WireFramesSent) / float64(res.EpochsServed),
		"process.peak_rss_mb":         float64(r.end.maxRSSKB) / 1024,
		"process.gc_cpu_share":        (last.gcCPU - first.gcCPU).Seconds() / (last.cpu - first.cpu).Seconds(),
	}
	for _, b := range res.SlaveWindowBytes {
		v["core.window_bytes"] += float64(b)
	}
	return v
}

// check is the correctness verdict of one run.
type check struct {
	attempted, failed int64
	reference         int64 // pairs the oracle counts over the full input
	problems          []string
}

func (c *check) correct() bool { return len(c.problems) == 0 }

func (c *check) fail(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// verify checks the run's output against the reference join. An operation
// is one output pair: attempted is the number the reference expects (on the
// overload workload, where tuples are dropped by design, the number the sink
// saw), failed the pairs that are wrong, missing or in excess.
func (r *liveRun) verify(reg *regenerated) check {
	s := r.sink
	ref := reg.referencePairs(s.gapMs, s.fromMs, s.toMs)
	c := check{reference: ref, failed: s.badKeys}
	if s.badKeys > 0 {
		c.fail("%d pairs join unequal keys", s.badKeys)
	}
	if r.w.sustainable {
		c.attempted = ref
		diff := s.oraclePairs - ref
		c.failed += max(diff, -diff)
		if math.Abs(float64(diff)) > 0.001*float64(ref) {
			c.fail("sink saw %d reference pairs, oracle expects %d", s.oraclePairs, ref)
		}
	} else {
		c.attempted = s.oraclePairs
		if s.oraclePairs > ref {
			c.failed += s.oraclePairs - ref
			c.fail("sink saw %d reference pairs, more than the %d the full input allows", s.oraclePairs, ref)
		}
	}
	if c.attempted == 0 {
		c.attempted = 1
		c.fail("no measured pair")
	}

	// The program's own output counter must agree with the sink. Over pipes
	// it starts at the warm-up boundary, where up to an epoch of pairs
	// already emitted are still to be flushed to the collector; over TCP it
	// covers the whole run.
	want := s.pairsAfterWarm
	if r.w.tcp {
		want = s.pairs
	}
	slack := 2 * s.pairs / int64(r.genEndMs/distEpochMs)
	if d := r.res.Outputs - want; d < -slack || d > slack {
		c.fail("program counted %d outputs, sink %d (slack %d)", r.res.Outputs, want, slack)
	}
	return c
}
