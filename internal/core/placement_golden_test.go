package core

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// placementGolden is what one short simulated run pins of the controller's
// placement decisions: every §IV-C pairing, §V-A grow/shrink and the random
// group draws feed these figures, so any change to which group moves where,
// or when, shows up here. slavesFNV is an FNV-64 of the per-slave stats.
type placementGolden struct {
	outputs        int64
	delaySumMs     int64
	movesIssued    int
	movesCompleted int
	dod            string // DoDTrace as comma-separated active counts
	activeEnd      int
	masterPeakBuf  int64
	slavesFNV      uint64
}

func placementOf(r *Result) placementGolden {
	dod := make([]string, len(r.DoDTrace))
	for i, s := range r.DoDTrace {
		dod[i] = fmt.Sprint(s.Active)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", r.Slaves)
	return placementGolden{
		outputs:        r.Outputs,
		delaySumMs:     r.Delay.SumMs,
		movesIssued:    r.MovesIssued,
		movesCompleted: r.MovesCompleted,
		dod:            strings.Join(dod, ","),
		activeEnd:      r.ActiveEnd,
		masterPeakBuf:  r.MasterPeakBufBytes,
		slavesFNV:      h.Sum64(),
	}
}

// TestRunSimPlacementGolden pins the simulator's results for three short
// configurations that exercise the master's placement policy: supplier/
// consumer pairing under overload, adaptive growth from one active slave
// followed by shrinking under light load, and a memory-bounded slave. The
// constants were recorded from the simulator before the planner was split
// out of the master; a placement refactor must reproduce them exactly.
func TestRunSimPlacementGolden(t *testing.T) {
	pairing := smokeConfig()
	pairing.Slaves = 4
	pairing.FineTune = false
	pairing.Rate = 12000
	pairing.BackgroundLoad = []float64{0.9, 0.6}
	pairing.Domain = 10_000_000
	pairing.WindowMs = 10_000
	pairing.DurationMs = 40_000
	pairing.WarmupMs = 10_000

	adaptive := pairing
	adaptive.InitialActive = 1
	adaptive.Adaptive = true
	adaptive.BackgroundLoad = nil
	adaptive.RateSchedule = []RateStep{{AtMs: 20_000, Rate: 50}}

	memory := smokeConfig()
	memory.Slaves = 2
	memory.Rate = 1200
	memory.WindowMs = 20_000
	memory.DurationMs = 40_000
	memory.WarmupMs = 10_000
	memory.SlaveMemBytes = []int64{256 << 10, 0}

	cases := []struct {
		name string
		cfg  Config
		want placementGolden
	}{
		{"pairing", pairing, placementGolden{outputs: 3295, delaySumMs: 3471775, movesIssued: 5, movesCompleted: 4, dod: "4,4,4,4,4,4,4,4", activeEnd: 4, masterPeakBuf: 794880, slavesFNV: 0xcf4c63366c9c9264}},
		{"adaptive", adaptive, placementGolden{outputs: 1480, delaySumMs: 2938304, movesIssued: 61, movesCompleted: 61, dod: "1,1,1,2,3,2,1,1", activeEnd: 1, masterPeakBuf: 783040, slavesFNV: 0x5da4211f98b3b48f}},
		{"memory", memory, placementGolden{outputs: 5582, delaySumMs: 1715218, movesIssued: 8, movesCompleted: 7, dod: "2,2,2,2,2,2,2,2", activeEnd: 2, masterPeakBuf: 79616, slavesFNV: 0x4cf18d2465a775bc}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := placementOf(mustRun(t, c.cfg))
			if got != c.want {
				t.Fatalf("placement changed:\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}
