package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one visit of the replay to a layer: the call (or run of calls)
// into one module's public functions. Spans of one distribution epoch share
// its id; Parent is the index of the enclosing span, -1 for an epoch span.
type span struct {
	Name    string `json:"name"`
	Epoch   int    `json:"epoch"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing and reads no
// clock, which is the untraced pass the tracing overhead is measured against.
type tracer struct {
	t0    time.Time
	epoch int
	spans []span
	open  []int // indexes of the spans begun and not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// startEpoch stamps the spans begun from now on with epoch id e.
func (t *tracer) startEpoch(e int) {
	if t != nil {
		t.epoch = e
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{
		Name: name, Epoch: t.epoch, Parent: parent,
		StartNs: int64(time.Since(t.t0)),
	})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].EndNs = int64(time.Since(t.t0))
	t.open = t.open[:n]
}

// selfTimes sums, per span name, each span's duration minus its children's,
// over the spans of epochs after fromEpoch.
func selfTimes(spans []span, fromEpoch int) map[string]time.Duration {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.EndNs - s.StartNs
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	byName := make(map[string]time.Duration)
	for i, s := range spans {
		if s.Epoch > fromEpoch {
			byName[s.Name] += time.Duration(self[i])
		}
	}
	return byName
}

// traceFile is the layout of out/trace-<workload>.json.
type traceFile struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	EpochMs    int    `json:"epoch_ms"`
	WarmEpochs int    `json:"warm_epochs"`
	Spans      []span `json:"spans"`
}

func writeTrace(dir string, f traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	data, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	path := filepath.Join(dir, "trace-"+f.Workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
