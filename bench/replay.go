package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"streamjoin/internal/engine"
	"streamjoin/internal/join"
	"streamjoin/internal/metrics"
	"streamjoin/internal/tuple"
	"streamjoin/internal/wire"
	"streamjoin/internal/workload"
)

// The traced replay pushes a workload's seeded tuple stream, one
// distribution epoch at a time, through the public functions of every layer
// in the order the live cluster calls them, on one goroutine (plus a peer
// goroutine per connection, which only receives). It is the single-threaded
// baseline of the same job, and with a tracer it yields the per-layer time
// budget: what is left of the live run's CPU after these layers is the
// channel hops, the epoch barrier, timers, scheduling and GC inside
// internal/core, which no public call exposes.

// Layer names; a span carries one of them.
const (
	layerEpoch     = "epoch"
	layerGen       = "workload.gen"
	layerPartition = "tuple.partition"
	layerEncode    = "wire.encode"
	layerDecode    = "wire.decode"
	layerTCP       = "engine.tcp"
	layerPipe      = "engine.pipe"
	layerJoin      = "join.process"
	layerSink      = "sink.emit"
	layerCollect   = "collect.result"
)

// replayMeasuredEpochs follow the warm-up window in every replay: one more
// window's worth. Per-tuple costs are flat once the windows are full, so the
// replay need not be as long as the live run.
const replayMeasuredEpochs = warmEpochs

// replayStats are the replay's counts over its measured epochs.
type replayStats struct {
	offered, admitted       int64
	pairs, scanned, expired int64
	splits                  int64
	wireBytes               int64 // framed bytes of the tuple batches (TCP arm)
	wall                    time.Duration
}

// link carries a message from the replay to a peer goroutine and back
// through one engine connection, so the span around carry times Send→Recv.
type link struct {
	send engine.Conn
	got  chan wire.Message
	stop func()
}

// newLink connects two engine processes by pipe or by a loopback TCP pair
// with batched framing, as the program's deployments do.
func newLink(env *engine.LiveEnv, tcp bool, flushBytes int) (*link, error) {
	a, b := env.NewProc("replay-master"), env.NewProc("replay-slave")
	l := &link{got: make(chan wire.Message)}
	var recv engine.Conn
	closeConns := func() {}
	if tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ca, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		cb, err := ln.Accept()
		if err != nil {
			ca.Close()
			return nil, err
		}
		l.send = engine.WrapTCPBatched(a, ca, flushBytes)
		recv = engine.WrapTCPBatched(b, cb, flushBytes)
		closeConns = func() { ca.Close(); cb.Close() }
	} else {
		l.send, recv = engine.Pipe(a, b)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// A failed loopback connection panics inside Recv; hand the replay
		// a nil message instead, which carry reports as an error.
		defer func() {
			if recover() != nil {
				close(l.got)
			}
		}()
		for {
			m := recv.Recv()
			l.got <- m
			if b, ok := m.(*wire.Batch); ok && b.Shutdown {
				return
			}
		}
	}()
	l.stop = func() {
		_, _ = l.carry(&wire.Batch{Shutdown: true}) // ends the peer goroutine
		<-done
		closeConns()
	}
	return l, nil
}

func (l *link) carry(m wire.Message) (got wire.Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("replay connection: %v", r)
		}
	}()
	l.send.Send(m)
	got, ok := <-l.got
	if !ok {
		return nil, errors.New("replay connection: peer failed")
	}
	return got, nil
}

// tracedSink times the benchmark's own per-pair work as a child of the
// join.process span that called it.
type tracedSink struct {
	tr    *tracer
	inner *measureSink
}

func (s *tracedSink) Emit(group int32, pairs []join.Pair) []join.Pair {
	s.tr.begin(layerSink)
	pairs = s.inner.Emit(group, pairs)
	s.tr.end()
	return pairs
}

// replay runs warmEpochs+replayMeasuredEpochs epochs of the workload.
// admitShare is the share of each epoch's tuples the live run admitted: the
// program's feeder drops the tail of an epoch once its channel is full, and
// the replay cuts the same way, so the join sees windows as full as the live
// ones. Generation is always paid for every offered tuple.
func replay(w workloadSpec, seed uint64, admitShare float64, tr *tracer) (replayStats, error) {
	cfg := w.config(seed, 1, 0, nil)
	env := engine.NewLiveEnv()
	links := make([]*link, cfg.Slaves)
	for i := range links {
		l, err := newLink(env, w.tcp, cfg.WireBatchBytes)
		if err != nil {
			return replayStats{}, err
		}
		defer l.stop()
		links[i] = l
	}
	sink := &tracedSink{tr: tr, inner: &measureSink{t0: time.Now(), toMs: math.MaxInt32}}
	modules := make([]*join.Module, cfg.Slaves)
	for i := range modules {
		m, err := join.New(join.Config{
			WindowMs: cfg.WindowMs, Theta: cfg.Theta, FineTune: cfg.FineTune,
			Mode: cfg.LiveProber, Expiry: join.ExpiryBlocks, Sink: sink,
		})
		if err != nil {
			return replayStats{}, err
		}
		modules[i] = m
	}
	s1, s2 := workload.Pair(w.sourceConfig(seed))
	transport := layerPipe
	if w.tcp {
		transport = layerTCP
	}

	var (
		st        replayStats
		collected metrics.DelayStats
		frame     bytes.Buffer
		fw        = wire.NewFrameWriter(&frame, cfg.WireBatchBytes)
		fr        = wire.NewFrameReader(&frame)
		perSlave  = make([][]tuple.Tuple, cfg.Slaves)
		perGroup  = make([][]tuple.Tuple, cfg.NumGroups())
		start     time.Time
	)
	for e := 1; e <= warmEpochs+replayMeasuredEpochs; e++ {
		measured := e > warmEpochs
		if e == warmEpochs+1 {
			start = time.Now()
		}
		tr.startEpoch(e)
		fromMs, nowMs := int32(e-1)*distEpochMs, int32(e)*distEpochMs
		tr.begin(layerEpoch)

		// Source → master.
		tr.begin(layerGen)
		tuples := workload.Merge(s1.Batch(fromMs, nowMs), s2.Batch(fromMs, nowMs))
		tr.end()
		offered := len(tuples)
		tuples = tuples[:int(math.Round(admitShare*float64(offered)))]

		// Master: hash every tuple to its partition-group; groups are placed
		// round-robin over the slaves and nothing moves them here.
		tr.begin(layerPartition)
		for i := range perSlave {
			perSlave[i] = perSlave[i][:0]
		}
		for _, t := range tuples {
			owner := int(cfg.GroupOfKey(t.Key)) % cfg.Slaves
			perSlave[owner] = append(perSlave[owner], t)
		}
		tr.end()

		for i, mod := range modules {
			var msg wire.Message = &wire.Batch{Epoch: int64(e), Tuples: perSlave[i]}
			if w.tcp {
				// The codec alone, then the connection, which runs the same
				// codec once more inside Send and Recv.
				tr.begin(layerEncode)
				err := errors.Join(fw.Append(msg), fw.Flush())
				tr.end()
				if err != nil {
					return st, err
				}
				if measured {
					st.wireBytes += int64(frame.Len())
				}
				tr.begin(layerDecode)
				_, err = fr.Next()
				tr.end()
				if err != nil {
					return st, err
				}
			}
			tr.begin(transport)
			msg, err := links[i].carry(msg)
			tr.end()
			if err != nil {
				return st, err
			}

			// Slave: demux by partition-group, then one join round per
			// group and chunk; groups without input still run, to expire.
			tr.begin(layerPartition)
			for g := range perGroup {
				perGroup[g] = perGroup[g][:0]
			}
			for _, t := range msg.(*wire.Batch).Tuples {
				g := cfg.GroupOfKey(t.Key)
				perGroup[g] = append(perGroup[g], t)
			}
			tr.end()

			var produced metrics.DelayStats
			for g := i; g < len(perGroup); g += cfg.Slaves {
				in := perGroup[g]
				for first := true; first || len(in) > 0; first = false {
					chunk := in[:min(len(in), cfg.ChunkTuples)]
					in = in[len(chunk):]
					tr.begin(layerJoin)
					res := mod.Process(int32(g), nowMs, chunk)
					tr.end()
					tr.begin(layerCollect)
					for _, m := range res.Matches {
						produced.Add(nowMs-m.TS, m.N)
					}
					tr.end()
					if measured {
						st.pairs += res.Outputs
						st.scanned += res.Scanned
						st.expired += int64(res.Expired)
					}
				}
			}

			// Slave → collector: one result batch per epoch.
			tr.begin(layerCollect)
			rb := &wire.ResultBatch{
				Slave: int32(i), Outputs: produced.Count, DelaySumMs: produced.SumMs,
				DelayMinMs: produced.MinMs, DelayMaxMs: produced.MaxMs, Hist: produced.Hist,
			}
			if w.tcp {
				m, err := wire.Unmarshal(wire.Marshal(rb))
				if err != nil {
					return st, err
				}
				rb = m.(*wire.ResultBatch)
			}
			collected.Merge(&metrics.DelayStats{
				Count: rb.Outputs, SumMs: rb.DelaySumMs,
				MinMs: rb.DelayMinMs, MaxMs: rb.DelayMaxMs, Hist: rb.Hist,
			})
			tr.end()
		}
		tr.end()
		if measured {
			st.offered += int64(offered)
			st.admitted += int64(len(tuples))
		}
	}
	st.wall = time.Since(start)
	for _, m := range modules {
		st.splits += m.Splits()
	}
	if collected.Count != sink.inner.pairs {
		return st, fmt.Errorf("replay: collector folded %d outputs, sink saw %d pairs",
			collected.Count, sink.inner.pairs)
	}
	return st, nil
}

// replayLayerValues turns the untraced and the traced pass into the
// per-layer metrics.
func replayLayerValues(plain, traced replayStats, spans []span) values {
	self := selfTimes(spans, warmEpochs)
	per := func(layer string, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(self[layer]) / float64(n)
	}
	// The connection span contains one encode and one decode of the batch;
	// what remains is the transport's own share.
	tcpSelf := max(0, self[layerTCP]-self[layerEncode]-self[layerDecode])
	v := values{
		"workload.gen_ns_per_tuple":    per(layerGen, traced.offered),
		"tuple.partition_ns_per_tuple": per(layerPartition, traced.admitted),
		"wire.encode_ns_per_tuple":     per(layerEncode, traced.admitted),
		"wire.decode_ns_per_tuple":     per(layerDecode, traced.admitted),
		"wire.bytes_per_tuple":         float64(traced.wireBytes) / float64(traced.admitted),
		"engine.tcp_ns_per_tuple":      float64(tcpSelf) / float64(traced.admitted),
		"engine.pipe_ns_per_tuple":     per(layerPipe, traced.admitted),
		"join.process_ns_per_tuple":    per(layerJoin, traced.admitted),
		"join.ns_per_pair":             per(layerJoin, traced.pairs),
		"join.pairs_per_tuple":         float64(traced.pairs) / float64(traced.admitted),
		"join.scanned_per_tuple":       float64(traced.scanned) / float64(traced.admitted),
		"join.expired_per_tuple":       float64(traced.expired) / float64(traced.admitted),
		"join.splits":                  float64(traced.splits),
		"sink.emit_ns_per_pair":        per(layerSink, traced.pairs),
		"collect.result_ns_per_tuple":  per(layerCollect, traced.admitted),
		"replay.tuples_per_s":          float64(plain.admitted) / plain.wall.Seconds(),
		"trace.overhead_share":         traced.wall.Seconds()/plain.wall.Seconds() - 1,
	}
	return v
}

// unattributedShare is the share of the live process's CPU that the layers'
// replayed per-tuple and per-pair costs do not account for, given the live
// run's CPU seconds, offered and ingested tuples and pairs per second.
func unattributedShare(v values, cpuPerS, offered, ingested, pairs float64) float64 {
	perTuple := v["tuple.partition_ns_per_tuple"] + v["wire.encode_ns_per_tuple"] +
		v["wire.decode_ns_per_tuple"] + v["engine.tcp_ns_per_tuple"] +
		v["engine.pipe_ns_per_tuple"] + v["join.process_ns_per_tuple"] +
		v["collect.result_ns_per_tuple"]
	attributed := v["workload.gen_ns_per_tuple"]*offered + perTuple*ingested +
		v["sink.emit_ns_per_pair"]*pairs
	return 1 - attributed/1e9/cpuPerS
}
