package main

import (
	"streamjoin"
	"streamjoin/internal/tuple"
	"streamjoin/internal/workload"
)

// Settings common to every workload. The window is half the issue's 10 s so
// that a warm-up of one full window, the measured interval, the set-up
// repetitions and the oracle fit the per-run time the benchmark driver
// allows; the key domains are scaled with it to keep the pair rates.
const (
	slaves       = 2
	workers      = 1 // join workers per slave
	skew         = 0.7
	distEpochMs  = 250
	windowMs     = 5000
	warmEpochs   = windowMs / distEpochMs // warm-up = one full window
	setupStarts  = 5                      // cluster starts per run behind setup_s
	setupRunMs   = 500                    // generation time of a set-up-only start
	quickSeconds = 8

	// The TCP arm starts the master first, slave 0 slaveLaunchDelayMs later
	// and each further slave slaveStaggerMs after the one before, so every
	// dial (to the master, then to the lower-numbered slaves' mesh listeners)
	// finds its listener up and never enters the program's retry backoff.
	// The cluster has formed a few milliseconds after the last launch.
	slaveLaunchDelayMs = 100
	slaveStaggerMs     = 10
	formationMs        = slaveLaunchDelayMs + (slaves-1)*slaveStaggerMs
)

// workloadSpec is one benchmark workload: an open-loop load at a fixed rate
// from the program's own 5 ms-tick feeder.
type workloadSpec struct {
	name string
	why  string
	// rate is tuples/s per stream; both streams run at it.
	rate float64
	// The key domain is 2^keyBits. The program's b-model generator gives
	// each stream its own seeded pattern of which half of the domain is hot
	// at each of the keyBits levels, so the chance that two tuples match —
	// and with it pairs per tuple, the property the workloads are defined
	// by — swings sevenfold between seeds. agreeBits pins it: see
	// programSeed.
	keyBits, agreeBits int
	// tcp runs master and slaves over loopback TCP inside this process;
	// otherwise RunLive connects them with in-process pipes.
	tcp bool
	// sustainable workloads must lose no tuple and match the oracle
	// exactly; the overload workload must only stay below it.
	sustainable bool
}

var workloads = []workloadSpec{
	{
		name: "steady-pipe", rate: 50_000, keyBits: 17, agreeBits: 8, sustainable: true,
		why: "sustainable reference point over in-process pipes: every layer does its ordinary share and the codec is bypassed",
	},
	{
		name: "steady-tcp", rate: 50_000, keyBits: 17, agreeBits: 8, tcp: true, sustainable: true,
		why: "same inputs over loopback TCP with batched framing: only here do wire encode/decode, framing and sockets do real work",
	},
	{
		name: "probe-heavy", rate: 20_000, keyBits: 11, agreeBits: 5, sustainable: true,
		why: "small key domain, tens of pairs per tuple: probe, pair materialisation and sink delivery dominate; master and transport idle",
	},
	{
		name: "ingest-overload", rate: 300_000, keyBits: 23, agreeBits: 12,
		why: "offered load far above the ingest ceiling with few matches: measures the ceiling and the drop share; the join only appends and expires",
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func (w workloadSpec) domain() int32 { return 1 << w.keyBits }

// sourceConfig is the stream description the program's feeder derives from
// its Config; the oracle and the replay build identical sources from it.
func (w workloadSpec) sourceConfig(seed uint64) workload.Config {
	return workload.Config{Rate: w.rate, Skew: skew, Domain: w.domain(), Seed: seed}
}

// programSeed maps the benchmark's seed to the seed handed to the program:
// the first one, counting up from a hash of it, on which the two streams
// prefer the same value on exactly agreeBits of the key's bits. With skew b a
// level the streams agree on multiplies the match probability by b²+(1−b)²,
// one they differ on by 2b(1−b), so equal agreement means equal selectivity
// whatever the seed. About one candidate in six fits.
func (w workloadSpec) programSeed(seed uint64) uint64 {
	for s := tuple.Mix64(seed); ; s++ {
		s1, s2 := workload.Pair(w.sourceConfig(s))
		if m1, m2 := w.majorityBits(s1), w.majorityBits(s2); countAgreeing(m1, m2, w.keyBits) == w.agreeBits {
			return s
		}
	}
}

// majorityBits samples a source and returns, per key bit, the value most
// tuples carry: on a power-of-two domain, bit keyBits−1−l of a key records
// which half the generator took at level l, and it takes the hot one 70 % of
// the time, so a few thousand samples leave no doubt.
func (w workloadSpec) majorityBits(src *workload.Source) uint32 {
	const samples = 4096
	sample := src.Batch(0, int32(samples/w.rate*1000)+1)
	var bits uint32
	for b := range w.keyBits {
		ones := 0
		for _, t := range sample {
			ones += int(t.Key>>b) & 1
		}
		if 2*ones > len(sample) {
			bits |= 1 << b
		}
	}
	return bits
}

func countAgreeing(a, b uint32, bits int) int {
	n := 0
	for i := range bits {
		if (a^b)>>i&1 == 0 {
			n++
		}
	}
	return n
}

// config is the program configuration of one cluster start that generates
// tuples for genMs milliseconds. Everything not set here is the program's
// default (θ, partitions, hash prober, batched framing, thresholds).
func (w workloadSpec) config(seed uint64, genMs, warmMs int32, sink streamjoin.Sink) streamjoin.Config {
	cfg := streamjoin.DefaultConfig()
	cfg.Slaves = slaves
	cfg.Workers = workers
	cfg.Rate = w.rate
	cfg.Skew = skew
	cfg.Domain = w.domain()
	cfg.Seed = seed
	cfg.WindowMs = windowMs
	cfg.DistEpochMs = distEpochMs
	cfg.DurationMs = genMs
	cfg.WarmupMs = warmMs
	cfg.Sink = sink
	if w.tcp {
		// ServeMasterTCP starts its DurationMs once the cluster has formed.
		cfg.DurationMs -= formationMs
		cfg.DialBudgetMs = 5000 // a failed master must not hold the slaves for 20 s
	}
	return cfg
}
