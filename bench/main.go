// Command bench is the repository's benchmark. It drives the live cluster
// through its public entry points on four named workloads and measures from
// outside: its own pair sink, getrusage and the returned Result.
//
//	bash bench/run.sh                      # every workload, end-to-end metrics
//	bash bench/run.sh -trace 1             # every workload, per-layer metrics
//	bash bench/run.sh -repeat 2            # the suite twice, compared to the bounds
//	bash bench/run.sh -workload steady-tcp -seed 7 -seconds 20 -trace 0
//
// With -workload it runs that one workload in this process and ends its
// standard output with one JSON object (correct, attempted, failed,
// metrics), which is what the benchmark driver reads. Without it, every
// workload runs in a re-exec'd child process of its own, so CPU, heap and
// peak RSS do not leak from one workload into the next. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// runSeconds is the measured interval of a comparable run; BENCHMARK.json
// states the same number.
const runSeconds = 15

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in-process (default: all, one child process each)")
		seed         = flag.Uint64("seed", 1, "workload seed")
		seconds      = flag.Int("seconds", runSeconds, "measured interval of a live run, in seconds")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the live run and the traced replay")
		repeat       = flag.Int("repeat", 1, "run the suite this many times and compare each run to the first")
		quick        = flag.Bool("quick", false, "8 s runs for iteration; the output is stamped non-comparable")
		outDir       = flag.String("out", "out", "directory for trace files and the suite summary")
	)
	flag.Parse()
	if *quick {
		*seconds = quickSeconds
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || *repeat < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if *workloadName == "" {
		os.Exit(runSuite(suiteOptions{
			seed: *seed, seconds: *seconds, trace: *trace, repeat: *repeat, outDir: *outDir,
		}))
	}
	w, ok := workloadByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	out, err := runWorkload(w, *seed, *seconds, *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// metricValue and runOutput are the result object of one workload run.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload measures one workload and prints every metric as
// "workload metric value unit". Lines starting with # are commentary.
func runWorkload(w workloadSpec, seed uint64, seconds int, traced bool, outDir string) (*runOutput, error) {
	fmt.Printf("# %s: %s\n", w.name, w.why)
	benchSeed, seed := seed, w.programSeed(seed)
	fmt.Printf("# seed %d (program seed %d), %d s measured after %d ms warm-up, W %d ms, t_d %d ms, %d slaves x %d worker, %.0f tuples/s/stream, domain %d, GOMAXPROCS %d of %d cores, %s\n",
		benchSeed, seed, seconds, warmEpochs*distEpochMs, windowMs, distEpochMs, slaves, workers,
		w.rate, w.domain(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if seconds != runSeconds {
		fmt.Printf("# NOT COMPARABLE: %d s measured, the benchmark's runs measure %d s\n", seconds, runSeconds)
	}

	// Set-up time is the median over several cluster starts: short-lived
	// ones first, then the measured run's own.
	var setups []float64
	if !traced {
		for range setupStarts - 1 {
			d, err := setupOnce(w, seed)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
		}
	}

	live, err := runLive(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	if live.sink.firstPair == 0 {
		return nil, fmt.Errorf("no pair reached the sink")
	}
	setups = append(setups, live.sink.firstPair.Seconds())

	reg := regenerate(w, seed, live.genEndMs)
	fig := live.figures(reg)
	verdict := live.verify(reg)

	specs, vals := endToEnd, live.endToEndValues(fig)
	vals["setup_s"] = median(setups)
	if traced {
		specs = perLayer
		layer, err := tracedValues(w, seed, live, fig, outDir)
		if err != nil {
			return nil, err
		}
		for _, s := range endToEnd[:len(endToEnd)-1] { // all but setup_s, as commentary
			fmt.Printf("# live %s %.4f %s\n", s.name, vals[s.name], s.unit)
		}
		vals = layer
	}

	out := &runOutput{
		Correct:   verdict.correct(),
		Attempted: verdict.attempted,
		Failed:    verdict.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		fmt.Printf("%s %s %.4f %s\n", w.name, s.name, v, s.unit)
		out.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	fmt.Printf("# offered %d, ingested %d tuples; %d measured pairs in %d join rounds; wall %.3f s; sink saw %d of the oracle's %d pairs, %d failed\n",
		fig.offered, fig.ingested, live.sink.delays.n, live.sink.rounds,
		live.wall.Seconds(), live.sink.oraclePairs, verdict.reference, verdict.failed)
	fmt.Printf("# process CPU per second of the measured interval: median slice %.1f ms, mean %.1f ms\n",
		1000*fig.cpuPerS, 1000*fig.cpuMeanPerS)
	for _, p := range verdict.problems {
		fmt.Printf("# INCORRECT: %s\n", p)
	}
	return out, nil
}

// tracedValues runs the replay twice, spans off then on, writes the span
// file, and returns every per-layer metric.
func tracedValues(w workloadSpec, seed uint64, live *liveRun, fig liveFigures, outDir string) (values, error) {
	admit := fig.ingestedShare
	if w.sustainable {
		admit = 1
	}
	plain, err := replay(w, seed, admit, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := replay(w, seed, admit, tr)
	if err != nil {
		return nil, err
	}
	path, err := writeTrace(outDir, traceFile{
		Workload: w.name, Seed: seed, EpochMs: distEpochMs, WarmEpochs: warmEpochs, Spans: tr.spans,
	})
	if err != nil {
		return nil, err
	}

	v := replayLayerValues(plain, traced, tr.spans)
	intervalS := float64(live.genEndMs-live.countFrom) / 1000
	pairsPerS := float64(live.sink.delays.n) / (float64(live.measToMs-live.measFromMs) / 1000)
	v["core.unattributed_share"] = unattributedShare(v, fig.cpuPerS,
		float64(fig.offered)/intervalS, fig.ingestedPerS, pairsPerS)
	for name, x := range live.liveLayerValues(fig) {
		v[name] = x
	}

	// The stage budget: self time per layer over the measured epochs, which
	// must add up to the replay's wall-clock.
	self := selfTimes(tr.spans, warmEpochs)
	names := make([]string, 0, len(self))
	var sum time.Duration
	for name, d := range self {
		names = append(names, name)
		sum += d
	}
	sort.Strings(names)
	fmt.Printf("# stage budget of the traced replay (%d epochs, %d tuples, %d pairs), spans in %s\n",
		replayMeasuredEpochs, traced.admitted, traced.pairs, path)
	for _, name := range names {
		fmt.Printf("#   %-16s %9.3f ms  %5.1f %%\n", name,
			float64(self[name])/1e6, 100*float64(self[name])/float64(traced.wall))
	}
	fmt.Printf("#   %-16s %9.3f ms  %5.1f %% of the replay's %.3f ms wall-clock\n", "sum",
		float64(sum)/1e6, 100*float64(sum)/float64(traced.wall), float64(traced.wall)/1e6)
	return v, nil
}
