package main

import (
	"errors"
	"fmt"
	"net"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"streamjoin"
	"streamjoin/internal/core"
	"streamjoin/internal/engine"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
)

// usage is one sample of the process's resource use, from outside the
// program's own accounting (whose Stats.CPU is a modelled cost).
type usage struct {
	cpu      time.Duration // getrusage user + system
	gcCPU    time.Duration // Go runtime's estimate of CPU spent in GC
	maxRSSKB int64
}

func sampleUsage() usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:    time.Duration(s[0].Value.Float64() * float64(time.Second)),
		maxRSSKB: ru.Maxrss,
	}
}

// startCluster runs one cluster to completion through the public entry
// points: RunLive for pipes, ServeMasterTCP plus one ServeSlaveTCP per slave
// on 127.0.0.1 for the TCP arm.
func startCluster(w workloadSpec, cfg streamjoin.Config) (*streamjoin.Result, error) {
	if !w.tcp {
		return streamjoin.RunLive(cfg)
	}
	addrs, err := freeLoopbackAddrs(2 + cfg.Slaves)
	if err != nil {
		return nil, err
	}
	ctl, results, mesh := addrs[0], addrs[1], addrs[2:]

	type masterOut struct {
		res *streamjoin.Result
		err error
	}
	masterDone := make(chan masterOut, 1)
	go func() {
		res, err := core.ServeMasterTCP(cfg, ctl, results)
		masterDone <- masterOut{res, err}
	}()
	time.Sleep(slaveLaunchDelayMs * time.Millisecond)
	slaveDone := make(chan error, cfg.Slaves)
	for id := range cfg.Slaves {
		if id > 0 {
			time.Sleep(slaveStaggerMs * time.Millisecond)
		}
		go func() { slaveDone <- core.ServeSlaveTCP(cfg, id, ctl, results, mesh) }()
	}
	m := <-masterDone
	errs := []error{m.err}
	for range cfg.Slaves {
		errs = append(errs, <-slaveDone)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return m.res, nil
}

// freeLoopbackAddrs reserves n distinct loopback ports by listening on port
// 0 and closing again; the program's entry points take addresses, not
// listeners, so the ports are handed over by number.
func freeLoopbackAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// setupOnce starts a short-lived cluster and returns the time from the start
// call to the first pair at the benchmark's sink: formation, clock sync, the
// first distribution epoch and the first join round.
func setupOnce(w workloadSpec, seed uint64) (time.Duration, error) {
	sink := &measureSink{t0: time.Now()}
	if _, err := startCluster(w, w.config(seed, setupRunMs, 0, sink)); err != nil {
		return 0, err
	}
	if sink.firstPair == 0 {
		return 0, fmt.Errorf("set-up start produced no pair in %d ms", setupRunMs)
	}
	return sink.firstPair, nil
}

// liveRun is everything one measured cluster run yields.
type liveRun struct {
	w workloadSpec

	// Creation-time intervals, in ms on the benchmark's clock.
	genEndMs   int32 // the feeder stopped here
	countFrom  int32 // Result.Master counts tuples created in [countFrom, genEndMs)
	measFromMs int32 // delay and oracle cover probes created in [measFromMs, measToMs)
	measToMs   int32

	res  *streamjoin.Result
	sink *measureSink
	wall time.Duration // of the start call
	// slices are the process's usage at the warm-up boundary and at every
	// full second after it up to the stop; end is taken after the start
	// call returned.
	slices []usage
	end    usage
}

// runLive starts the measured cluster: warm-up of one window, then seconds
// of measurement. The warm-up boundary and the stop both fall in the middle
// of a distribution epoch, where the cluster is between two exchanges, so
// the tuple counters cover whole epochs and do not race the boundary.
func runLive(w workloadSpec, seed uint64, seconds int) (*liveRun, error) {
	const half = distEpochMs / 2
	warmMs := int32(warmEpochs*distEpochMs + half)
	genMs := warmMs + int32(seconds)*1000
	r := &liveRun{
		w:          w,
		genEndMs:   genMs,
		countFrom:  warmMs - half,
		measFromMs: warmMs - half,
		// Tuples created in the stop's own half epoch are delivered one
		// epoch later, as the shutdown is on its way: leave them out.
		measToMs: genMs - half,
	}
	if w.tcp {
		// ServeMasterTCP subtracts no warm-up: its counters cover the run.
		r.countFrom = 0
	}
	r.sink = &measureSink{
		fromMs: r.measFromMs, toMs: r.measToMs,
		gapMs:  windowMs - 2*distEpochMs,
		warmAt: time.Duration(warmMs) * time.Millisecond,
	}
	cfg := w.config(seed, genMs, warmMs, r.sink)

	sampled := make(chan []usage, 1)
	r.sink.t0 = time.Now()
	go func() {
		at := r.sink.t0.Add(r.sink.warmAt)
		slices := make([]usage, 0, seconds+1)
		for range seconds + 1 {
			time.Sleep(time.Until(at))
			slices = append(slices, sampleUsage())
			at = at.Add(time.Second)
		}
		sampled <- slices
	}()
	res, err := startCluster(w, cfg)
	r.wall = time.Since(r.sink.t0)
	r.end = sampleUsage()
	if err != nil {
		return nil, err
	}
	r.res = res
	r.slices = <-sampled // the last sample was due at the stop, before the shutdown
	return r, nil
}

// batchOverheadBytes, tupleBytes and directiveBytes invert wire.Batch's
// logical size: the master sends nothing but batches, so its byte and
// message counters give the number of tuples it delivered.
var (
	batchOverheadBytes = (&wire.Batch{}).WireSize()
	tupleBytes         = (&wire.Batch{Tuples: make([]tuple.Tuple, 1)}).WireSize() - batchOverheadBytes
	directiveBytes     = (&wire.Batch{Directives: make([]wire.Directive, 1)}).WireSize() - batchOverheadBytes
)

// ingestedTuples is the number of tuples the master delivered to slaves,
// from its logical send counters. Each issued move puts one directive in
// two batches.
func ingestedTuples(master engine.Stats, movesIssued int) int64 {
	payload := master.BytesSent - master.MsgsSent*batchOverheadBytes -
		2*int64(movesIssued)*directiveBytes
	return payload / tupleBytes
}

// median of a non-empty slice.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
