package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"streamjoin/internal/join"
)

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSimDeterministic(t *testing.T) {
	cfg := smokeConfig()
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if a.Outputs != b.Outputs || a.Delay.SumMs != b.Delay.SumMs {
		t.Fatalf("outputs/delays differ: %d/%d vs %d/%d",
			a.Outputs, a.Delay.SumMs, b.Outputs, b.Delay.SumMs)
	}
	if !reflect.DeepEqual(a.Slaves, b.Slaves) {
		t.Fatalf("slave stats differ:\n%+v\n%+v", a.Slaves, b.Slaves)
	}
	if a.MasterPeakBufBytes != b.MasterPeakBufBytes {
		t.Fatal("master peak buffer differs")
	}
}

func TestSeedChangesWorkload(t *testing.T) {
	cfg := smokeConfig()
	a := mustRun(t, cfg)
	cfg.Seed = 2
	b := mustRun(t, cfg)
	if a.Outputs == b.Outputs && a.Delay.SumMs == b.Delay.SumMs {
		t.Fatal("different seeds produced identical results")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Slaves = 0 },
		func(c *Config) { c.InitialActive = 99 },
		func(c *Config) { c.SubGroups = 0 },
		func(c *Config) { c.SubGroups = c.Slaves + 1 },
		func(c *Config) { c.Partitions = 0 },
		func(c *Config) { c.PartitionsPerGroup = 7 }, // does not divide 60
		func(c *Config) { c.WindowMs = 0 },
		func(c *Config) { c.Theta = 0 },
		func(c *Config) { c.LiveProber = join.ModeIndexed },
		func(c *Config) { c.LiveProber = join.ModeHash + 1 },
		func(c *Config) { c.DistEpochMs = 0 },
		func(c *Config) { c.ReorgEpochMs = c.DistEpochMs + 1 },
		func(c *Config) { c.ThCon, c.ThSup = 0.5, 0.01 },
		func(c *Config) { c.SlaveBufBytes = 0 },
		func(c *Config) { c.Rate = 0 },
		// NaN fails every comparison, so these guards must fail closed: an
		// infinite rate makes a source's batches endless, a NaN skew makes
		// every draw take the same half.
		func(c *Config) { c.Rate = math.NaN() },
		func(c *Config) { c.Rate = math.Inf(1) },
		func(c *Config) { c.RateSchedule = []RateStep{{AtMs: 1, Rate: math.Inf(1)}} },
		func(c *Config) { c.Skew = 0.4 },
		func(c *Config) { c.Skew = math.NaN() },
		func(c *Config) { c.Skew = math.Inf(1) },
		func(c *Config) { c.Domain = 0 },
		func(c *Config) { c.WarmupMs = c.DurationMs },
		func(c *Config) { c.ChunkTuples = 0 },
		func(c *Config) { c.Beta = 1.5 },
		// Queries exclude the legacy single-query sink fields.
		func(c *Config) {
			c.Queries = []QuerySpec{{ID: 0, Prober: join.ModeHash}}
			c.CountOnly = true
		},
		func(c *Config) {
			c.Queries = []QuerySpec{{ID: 0, Prober: join.ModeHash}}
			c.SinkAddr = "127.0.0.1:7402"
		},
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d not rejected", i)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// overloadConfig saturates a single slave: without fine tuning the per-probe
// scan grows with the window and the quadratic CPU demand exceeds capacity.
func overloadConfig(slaves int, rate float64) Config {
	cfg := smokeConfig()
	cfg.Slaves = slaves
	cfg.FineTune = false
	cfg.Rate = rate
	cfg.Domain = 10_000_000
	cfg.DurationMs = 120_000
	cfg.WarmupMs = 60_000
	cfg.WindowMs = 30_000
	return cfg
}

func TestOverloadIncreasesDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-style simulation")
	}
	light := mustRun(t, overloadConfig(1, 1000))
	heavy := mustRun(t, overloadConfig(1, 8000))
	if light.MeanDelay() > time.Second {
		t.Fatalf("light load delay = %v, want < 1s", light.MeanDelay())
	}
	if heavy.MeanDelay() < 4*light.MeanDelay() {
		t.Fatalf("overload did not blow up delay: light=%v heavy=%v",
			light.MeanDelay(), heavy.MeanDelay())
	}
	// Saturated slave has (almost) no idle time.
	if heavy.AvgSlaveIdle() > light.AvgSlaveIdle()/4 {
		t.Fatalf("idle under overload = %v vs light %v", heavy.AvgSlaveIdle(), light.AvgSlaveIdle())
	}
}

func TestMoreSlavesAddCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-style simulation")
	}
	one := mustRun(t, overloadConfig(1, 8000))
	four := mustRun(t, overloadConfig(4, 8000))
	if four.MeanDelay() >= one.MeanDelay()/2 {
		t.Fatalf("4 slaves did not relieve overload: 1=%v 4=%v",
			one.MeanDelay(), four.MeanDelay())
	}
}

func TestFineTuningReducesCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-style simulation")
	}
	base := overloadConfig(2, 4000)
	base.Theta = 64 * 1024
	tuned := base
	tuned.FineTune = true
	ru := mustRun(t, base)
	rt := mustRun(t, tuned)
	if rt.Splits == 0 {
		t.Fatal("tuned run performed no splits")
	}
	if rt.AvgSlaveCPU()*2 > ru.AvgSlaveCPU() {
		t.Fatalf("fine tuning CPU %v not well below untuned %v",
			rt.AvgSlaveCPU(), ru.AvgSlaveCPU())
	}
	// Outputs must not change: tuning is performance-only.
	// (Exact equality is not expected — processing timing shifts round
	// boundaries and with them exact-expiry edges — but the counts must be
	// within a small band.)
	lo, hi := ru.Outputs*98/100, ru.Outputs*102/100
	if rt.Outputs < lo || rt.Outputs > hi {
		t.Fatalf("tuning changed outputs: %d vs %d", rt.Outputs, ru.Outputs)
	}
}

func TestLoadBalancingShedsFromSupplier(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-style simulation")
	}
	// The paper's non-dedicated cluster: slave 0 loses most of its CPU to
	// background work and saturates; slave 1 keeps up effortlessly. The
	// controller must classify 0 as supplier and migrate groups to 1.
	cfg := overloadConfig(2, 6_000)
	cfg.BackgroundLoad = []float64{0.85, 0}
	cfg.DurationMs = 180_000
	cfg.WarmupMs = 90_000
	res := mustRun(t, cfg)
	if res.MovesCompleted == 0 {
		t.Fatalf("no partition-group movements (issued=%d)", res.MovesIssued)
	}
	// Groups must end up predominantly on the unloaded slave.
	if res.SlaveWindowBytes[1] <= res.SlaveWindowBytes[0] {
		t.Fatalf("window bytes did not shift to the fast slave: %v", res.SlaveWindowBytes)
	}
}

func TestLoadBalancingRecoversDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-style simulation")
	}
	// With balancing disabled the slow slave backlogs; its unprocessed
	// tuples age (delay up) and their partners expire before joining
	// (outputs down). Balancing sheds the load to the fast slave and
	// recovers both.
	cfg := overloadConfig(2, 6_000)
	cfg.BackgroundLoad = []float64{0.85, 0}
	cfg.DurationMs = 300_000
	cfg.WarmupMs = 150_000
	balanced := mustRun(t, cfg)
	frozen := cfg
	frozen.ThCon = 0 // no slave can classify as consumer -> no movements
	stuck := mustRun(t, frozen)
	if balanced.MeanDelay()*5/4 >= stuck.MeanDelay() {
		t.Fatalf("balancing did not lower delay: balanced=%v frozen=%v",
			balanced.MeanDelay(), stuck.MeanDelay())
	}
	if balanced.Outputs <= stuck.Outputs {
		t.Fatalf("balancing did not recover outputs: balanced=%d frozen=%d",
			balanced.Outputs, stuck.Outputs)
	}
}

func TestAdaptiveGrowsUnderOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-style simulation")
	}
	cfg := overloadConfig(4, 9000)
	cfg.InitialActive = 1
	cfg.Adaptive = true
	cfg.DurationMs = 180_000
	cfg.WarmupMs = 90_000
	res := mustRun(t, cfg)
	if res.ActiveEnd < 2 {
		t.Fatalf("degree of declustering did not grow: %d active", res.ActiveEnd)
	}
	grew := false
	for i := 1; i < len(res.DoDTrace); i++ {
		if res.DoDTrace[i].Active > res.DoDTrace[i-1].Active {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("DoD trace never increased: %+v", res.DoDTrace)
	}
}

func TestAdaptiveShrinksUnderLightLoad(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 4
	cfg.Adaptive = true
	cfg.Rate = 100
	cfg.DurationMs = 120_000
	cfg.WarmupMs = 60_000
	res := mustRun(t, cfg)
	if res.ActiveEnd >= 4 {
		t.Fatalf("degree of declustering did not shrink: %d active", res.ActiveEnd)
	}
	if res.ActiveEnd < 1 {
		t.Fatal("shrunk below one active slave")
	}
}

func TestSubGroupsReduceMasterPeakBuffer(t *testing.T) {
	base := smokeConfig()
	base.Slaves = 4
	base.Rate = 2000
	base.SubGroups = 1
	split := base
	split.SubGroups = 4
	r1 := mustRun(t, base)
	r4 := mustRun(t, split)
	if r4.MasterPeakBufBytes >= r1.MasterPeakBufBytes {
		t.Fatalf("sub-groups did not reduce the master buffer: ng=1 %d, ng=4 %d",
			r1.MasterPeakBufBytes, r4.MasterPeakBufBytes)
	}
	// §V-B closed form (both streams): Mbuf = r·td·(1+1/ng) tuples.
	bound := func(ng float64) int64 {
		perStream := base.Rate * float64(base.DistEpochMs) / 1000 / 2 * (1 + 1/ng)
		return int64(2*perStream) * 64
	}
	if r4.MasterPeakBufBytes > bound(4)*3/2 {
		t.Fatalf("ng=4 peak %d far above closed form %d", r4.MasterPeakBufBytes, bound(4))
	}
}

func TestOutputsCompleteAcrossMovements(t *testing.T) {
	if testing.Short() {
		t.Skip("soak-style simulation")
	}
	// The same workload processed with and without load movements must
	// produce (nearly) the same join outputs: movements shift processing
	// in time but never lose or duplicate pairs. The small band covers
	// exact-expiry edges that shift with round timing.
	// One minute of overload (backlog builds, movements trigger) followed
	// by a drain phase so both systems finish all queued work before the
	// horizon — outstanding backlog is the one legitimate outputs gap.
	base := overloadConfig(2, 8_000)
	base.BackgroundLoad = []float64{0.7, 0}
	base.WarmupMs = 1
	base.DurationMs = 150_000
	base.RateSchedule = []RateStep{{AtMs: 60_000, Rate: 200}}
	still := base
	still.ThCon = 0 // no consumers -> no movements
	moved := mustRun(t, base)
	fixed := mustRun(t, still)
	if moved.MovesCompleted == 0 {
		t.Skip("workload did not trigger movements; covered by TestLoadBalancingShedsFromSupplier")
	}
	lo, hi := fixed.Outputs*97/100, fixed.Outputs*103/100
	if moved.Outputs < lo || moved.Outputs > hi {
		t.Fatalf("movements changed outputs: %d vs %d", moved.Outputs, fixed.Outputs)
	}
}

func TestInactiveSlavesPollCheaply(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 4
	cfg.InitialActive = 2
	cfg.Adaptive = false // slaves 2,3 stay inactive all run
	res := mustRun(t, cfg)
	for i := 2; i < 4; i++ {
		s := res.Slaves[i]
		if s.MsgsRecv == 0 {
			t.Fatalf("inactive slave %d never polled", i)
		}
		if s.MsgsRecv >= res.Slaves[0].MsgsRecv/2 {
			t.Fatalf("inactive slave %d polled too often: %d vs active %d",
				i, s.MsgsRecv, res.Slaves[0].MsgsRecv)
		}
	}
}

func TestDelayTracksDistributionEpoch(t *testing.T) {
	short := smokeConfig()
	short.DistEpochMs = 250
	long := smokeConfig()
	long.DistEpochMs = 2000
	long.ReorgEpochMs = 20000
	rs := mustRun(t, short)
	rl := mustRun(t, long)
	if rs.MeanDelay() >= rl.MeanDelay() {
		t.Fatalf("delay should grow with the distribution epoch: td=250ms %v, td=2s %v",
			rs.MeanDelay(), rl.MeanDelay())
	}
}

func TestCommSummaryDiverges(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 4
	cfg.Rate = 2000
	res := mustRun(t, cfg)
	sum := res.CommSummary()
	if sum.N != 4 {
		t.Fatalf("summary over %d slaves", sum.N)
	}
	if !(sum.Min < sum.Mean() && sum.Mean() < sum.Max) {
		t.Fatalf("no divergence: min=%.2f mean=%.2f max=%.2f", sum.Min, sum.Mean(), sum.Max)
	}
}
