package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

type suiteOptions struct {
	seed    uint64
	seconds int
	trace   int
	repeat  int
	outDir  string
}

// workloadResult is one child's result object, labelled.
type workloadResult struct {
	Workload string `json:"workload"`
	runOutput
}

// summary is the suite's JSON record: out/summary.json, and, for the first
// baseline, results/BENCH_PR11.json. The benchmark measures and claims
// nothing, so the record ends with a null claim.
type summary struct {
	Benchmark  string             `json:"benchmark"`
	Commit     string             `json:"commit"`
	GoVersion  string             `json:"go"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       uint64             `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      int                `json:"trace"`
	Comparable bool               `json:"comparable"`
	Runs       [][]workloadResult `json:"runs"`
	Claim      *string            `json:"claim"`
}

// runSuite runs every workload in a child process of its own, repeat times
// over, writes the summary, and, when repeated, compares each later run to
// the first against the end-to-end bounds. It returns the exit code.
func runSuite(o suiteOptions) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	sum := summary{
		Benchmark: "streamjoin live cluster", Commit: gitCommit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Comparable: o.seconds == runSeconds,
	}
	code := 0
	for run := range o.repeat {
		if o.repeat > 1 {
			fmt.Printf("# run %d of %d\n", run+1, o.repeat)
		}
		var results []workloadResult
		for _, w := range workloads {
			out, err := runChild(self, w.name, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				code = 1
			}
			if out != nil {
				results = append(results, workloadResult{Workload: w.name, runOutput: *out})
			}
		}
		sum.Runs = append(sum.Runs, results)
	}
	if o.repeat > 1 && o.trace == 0 && !compareRuns(sum.Runs) {
		code = 1
	}

	data, err := json.MarshalIndent(sum, "", "  ")
	if err == nil {
		err = os.MkdirAll(o.outDir, 0o755)
	}
	path := filepath.Join(o.outDir, "summary.json")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing summary: %v\n", err)
		return 1
	}
	fmt.Printf("# summary written to %s\n", path)
	return code
}

// runChild runs one workload in a fresh process, passes its report through,
// and decodes the result object on its last line. A child that measured but
// failed its checks yields both its result and an error.
func runChild(self, workload string, o suiteOptions) (*runOutput, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace),
		"-out", o.outDir)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()

	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Println(last)
		}
		last = sc.Text()
	}
	var out runOutput
	if !strings.HasPrefix(last, "{") || json.Unmarshal([]byte(last), &out) != nil {
		if last != "" {
			fmt.Println(last)
		}
		if runErr == nil {
			runErr = fmt.Errorf("no result object on the last line")
		}
		return nil, runErr
	}
	return &out, runErr
}

// compareRuns prints, per workload and end-to-end metric, the first run's
// value, each later run's, and their relative difference against the
// metric's bound. It reports whether every pair agrees within its bound.
func compareRuns(runs [][]workloadResult) bool {
	ok := true
	fmt.Printf("# %-16s %-22s %14s %14s %8s %6s\n", "workload", "metric", "first", "later", "diff", "bound")
	for _, later := range runs[1:] {
		for i, first := range runs[0] {
			if i >= len(later) || later[i].Workload != first.Workload {
				fmt.Printf("# %s: missing from a later run\n", first.Workload)
				ok = false
				continue
			}
			for _, s := range endToEnd {
				a, b := first.Metrics[s.name].Value, later[i].Metrics[s.name].Value
				diff := math.Abs(b-a) / math.Abs(a)
				verdict := ""
				if !(diff <= s.bound) {
					verdict = "  BREACH"
					ok = false
				}
				fmt.Printf("# %-16s %-22s %14.4f %14.4f %7.2f%% %5.0f%%%s\n",
					first.Workload, s.name, a, b, 100*diff, 100*s.bound, verdict)
			}
		}
	}
	return ok
}

// gitCommit names the commit the benchmark ran on, when there is one to ask.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
