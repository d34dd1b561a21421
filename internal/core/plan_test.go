package core

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// planView builds the view a fresh master has of cfg's cluster: every slot a
// roster member, the first InitialActive active and owning the groups
// round-robin, and the given occupancies reported by the first slots.
func planView(t *testing.T, cfg Config, occ ...float64) *placementView {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	n0 := cfg.initialActive()
	v := &placementView{cfg: &cfg, slots: make([]slotView, cfg.Slaves), active: n0}
	for i := range v.slots {
		v.slots[i].member = true
		v.slots[i].active = i < n0
	}
	for g := 0; g < cfg.NumGroups(); g++ {
		v.slots[g%n0].free = append(v.slots[g%n0].free, int32(g))
	}
	for i, o := range occ {
		v.slots[i].occ, v.slots[i].haveOcc = o, true
	}
	return v
}

func planRNG() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }

// planFor plans one boundary of a smokeConfig cluster of n slaves.
func planFor(t *testing.T, n int, occ ...float64) boundaryPlan {
	cfg := smokeConfig()
	cfg.Slaves = n
	return planBoundary(planView(t, cfg, occ...), planRNG())
}

func TestClassificationPairsSupplierWithConsumer(t *testing.T) {
	p := planFor(t, 4, 0.9, 0.001, 0.2, 0.002)
	if len(p.moves) != 1 {
		t.Fatalf("moves = %+v, want 1", p.moves)
	}
	if mv := p.moves[0]; mv.from != 0 || mv.to != 1 || mv.tracked {
		t.Fatalf("move = %+v, want an untracked 0 → 1 (lowest occupancy)", mv)
	}
}

func TestMultipleSupplierConsumerPairs(t *testing.T) {
	p := planFor(t, 4, 0.9, 0.8, 0.001, 0.0)
	if len(p.moves) != 2 {
		t.Fatalf("moves = %+v, want 2", p.moves)
	}
	// Heaviest supplier pairs with lightest consumer.
	if p.moves[0].from != 0 || p.moves[0].to != 3 || p.moves[1].from != 1 || p.moves[1].to != 2 {
		t.Fatalf("pairs = %+v, want 0 → 3 and 1 → 2", p.moves)
	}
}

func TestNeutralSlavesDoNotMove(t *testing.T) {
	// All neutral: between ThCon = 0.01 and ThSup = 0.5.
	if p := planFor(t, 3, 0.3, 0.2, 0.1); len(p.moves) != 0 {
		t.Fatalf("moves issued among neutral slaves: %+v", p.moves)
	}
}

func TestSupplierWithoutConsumerWaits(t *testing.T) {
	if p := planFor(t, 2, 0.9, 0.3); len(p.moves) != 0 {
		t.Fatalf("move issued without consumer: %+v", p.moves)
	}
}

func TestBusySlavesSitOutReorganization(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 4
	v := planView(t, cfg, 0.9, 0.001, 0.9, 0.001)
	p := planBoundary(v, planRNG())
	if len(p.moves) == 0 {
		t.Fatal("no moves issued")
	}
	// The endpoints stay busy until their moves ack: planning again must
	// not pair them a second time.
	for _, mv := range p.moves {
		v.slots[mv.from].busy, v.slots[mv.to].busy = true, true
	}
	if again := planBoundary(v, planRNG()); len(again.moves) != 0 {
		t.Fatalf("busy slaves re-paired: %+v", again.moves)
	}
}

func TestAdaptiveShrinkWhenNoSuppliers(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 3
	cfg.Adaptive = true
	p := planBoundary(planView(t, cfg, 0.004, 0.001, 0.2), planRNG())
	if !slices.Equal(p.deactivate, []int32{1}) {
		t.Fatalf("deactivate = %v, want the lightest consumer, slave 1", p.deactivate)
	}
	// All of slave 1's groups must be scheduled away.
	for _, mv := range p.moves {
		if mv.from != 1 || mv.to == 1 || mv.tracked {
			t.Fatalf("unexpected move %+v", mv)
		}
	}
	if len(p.moves) != cfg.NumGroups()/3 {
		t.Fatalf("moves = %d, want %d", len(p.moves), cfg.NumGroups()/3)
	}
}

func TestAdaptiveNeverShrinksBelowOne(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 2
	cfg.InitialActive = 1
	cfg.Adaptive = true
	if p := planBoundary(planView(t, cfg, 0.0), planRNG()); len(p.deactivate) != 0 {
		t.Fatalf("deactivated the last active slave: %v", p.deactivate)
	}
}

func TestAdaptiveGrowWhenSuppliersDominate(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 4
	cfg.InitialActive = 2
	cfg.Adaptive = true
	// Two suppliers, zero consumers: N_sup > β·N_con.
	p := planBoundary(planView(t, cfg, 0.9, 0.8), planRNG())
	if !slices.Equal(p.activate, []int32{2}) {
		t.Fatalf("activate = %v, want slave 2", p.activate)
	}
	// The activated slave immediately serves as a consumer.
	if !slices.ContainsFunc(p.moves, func(mv move) bool { return mv.to == 2 }) {
		t.Fatalf("activated slave received no group: %+v", p.moves)
	}
}

func TestAdaptiveGrowRespectsBeta(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 6
	cfg.InitialActive = 4
	cfg.Adaptive = true
	cfg.Beta = 0.5
	// 1 supplier, 3 consumers: 1 > 0.5·3 is false, so no growth.
	p := planBoundary(planView(t, cfg, 0.9, 0.001, 0.002, 0.003), planRNG())
	if len(p.activate) != 0 {
		t.Fatalf("activation despite N_sup <= β·N_con: %v", p.activate)
	}
	if len(p.moves) != 1 {
		t.Fatalf("pairing should still happen: %+v", p.moves)
	}
}

// TestReorgActivatesOnlyRealJoiners: a slave admitted mid-run is activated
// and filled at its first boundary; one that §V-A adaptation deactivated is
// not mistaken for a joiner.
func TestReorgActivatesOnlyRealJoiners(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 4
	cfg.InitialActive = 2
	v := planView(t, cfg, 0.2, 0.2) // neither supplier nor consumer
	v.slots[3].joining = true       // slot 2 stays deactivated
	p := planBoundary(v, planRNG())
	if !slices.Equal(p.activate, []int32{3}) {
		t.Fatalf("activate = %v, want only the joiner, slave 3", p.activate)
	}
	toward := map[int32]int32{}
	for _, mv := range p.moves {
		toward[mv.to]++
	}
	if toward[3] == 0 || toward[2] != 0 {
		t.Fatalf("groups moved toward joiner %d, toward deactivated slave %d", toward[3], toward[2])
	}
	if len(p.joins) != 1 || p.joins[0].slave != 3 || p.joins[0].groups != toward[3] {
		t.Fatalf("joins = %+v, want slave 3 with %d groups", p.joins, toward[3])
	}
}

// TestPlan pins the membership halves of the planner: the join rebalance,
// the graceful-leave drain and the promote-or-adopt eviction.
func TestPlan(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 4
	cfg.Replicate = true
	groups := func(lo, hi int32) []int32 {
		var gs []int32
		for g := lo; g < hi; g++ {
			gs = append(gs, g)
		}
		return gs
	}

	// A joiner gets a 1/(n+1) share, heaviest donor first, round-robin,
	// never emptying a donor.
	t.Run("join rebalance", func(t *testing.T) {
		v := planView(t, cfg)
		v.slots[3].active, v.active = false, 3
		v.slots[3].joining = true
		v.slots[0].free, v.slots[0].occ = groups(0, 2), 0.1 // can give one group
		v.slots[1].free, v.slots[1].occ = groups(2, 40), 0.4
		v.slots[2].free, v.slots[2].occ = groups(40, 60), 0.3
		p := planBoundary(v, planRNG())
		share := cfg.NumGroups() / 4
		if len(p.moves) != share || len(p.joins) != 1 || p.joins[0].groups != int32(share) {
			t.Fatalf("moved %d groups (joins %+v), want a share of %d", len(p.moves), p.joins, share)
		}
		from := map[int32]int{}
		for k, mv := range p.moves {
			if mv.to != 3 || !mv.tracked {
				t.Fatalf("move %+v is not a tracked move toward the joiner", mv)
			}
			if k < 3 && mv.from != []int32{1, 2, 0}[k] {
				t.Fatalf("first round %+v, want donors by occupancy 1, 2, 0", p.moves[:3])
			}
			from[mv.from]++
		}
		if from[0] != 1 || from[1] != 7 || from[2] != 7 {
			t.Fatalf("groups per donor = %v, want 0:1 1:7 2:7 (round-robin, donor 0 keeps one)", from)
		}
	})

	// A leaver drains to the lightest target first, round-robin.
	t.Run("leave drain", func(t *testing.T) {
		v := planView(t, cfg, 0.3, 0.2, 0.1, 0.25)
		v.slots[1].leaving = true
		p := planBoundary(v, planRNG())
		if !slices.Equal(p.drained, []int32{1}) || !slices.Equal(p.deactivate, []int32{1}) {
			t.Fatalf("drained %v, deactivate %v, want slave 1", p.drained, p.deactivate)
		}
		order := []int32{2, 3, 0}
		for k, g := range v.slots[1].free {
			if want := (move{group: g, from: 1, to: order[k%3], tracked: true}); p.moves[k] != want {
				t.Fatalf("move %d = %+v, want %+v", k, p.moves[k], want)
			}
		}
		if len(p.moves) != len(v.slots[1].free) {
			t.Fatalf("moves = %d, want the leaver's %d groups", len(p.moves), len(v.slots[1].free))
		}
	})

	// Slave 1 died owning groups 1, 5, 9, ...; slot 2 is its buddy.
	dead := func(t *testing.T, replicate bool) *placementView {
		c := cfg
		c.Replicate = replicate
		v := planView(t, c)
		v.slots[1].active, v.slots[1].member = false, false
		return v
	}
	// A promotion lands on the buddy of the shadow's owner: the dead slave,
	// or the supplier of a group lost in transit.
	t.Run("eviction promotes", func(t *testing.T) {
		v := dead(t, true)
		lost := v.slots[1].free[0] // lost in transit from supplier 3
		installs, orphans, adopted := planEviction(v, 1, map[int32]int32{lost: 3})
		if len(orphans) != 0 || adopted != 0 || len(installs) != len(v.slots[1].free) {
			t.Fatalf("installs %+v, orphans %v, adopted %d", installs, orphans, adopted)
		}
		for k, mv := range installs {
			want := move{group: v.slots[1].free[k], from: promoteFrom(1), to: 2, tracked: true}
			if k == 0 {
				want.from, want.to = promoteFrom(3), 0
			}
			if mv != want {
				t.Fatalf("install %d = %+v, want %+v", k, mv, want)
			}
		}
	})
	// Without replicas the live slaves adopt empty, round-robin.
	t.Run("eviction adopts", func(t *testing.T) {
		v := dead(t, false)
		installs, orphans, adopted := planEviction(v, 1, nil)
		if len(orphans) != 0 || adopted != len(v.slots[1].free) {
			t.Fatalf("orphans %v, adopted %d of %d", orphans, adopted, len(v.slots[1].free))
		}
		order := []int32{0, 2, 3}
		for k, mv := range installs {
			if want := (move{group: v.slots[1].free[k], from: -1, to: order[k%3], tracked: true}); mv != want {
				t.Fatalf("install %d = %+v, want %+v", k, mv, want)
			}
		}
		for i := range v.slots {
			v.slots[i].active = false
		}
		if installs, orphans, _ := planEviction(v, 1, nil); len(installs) != 0 || len(orphans) != len(v.slots[1].free) {
			t.Fatalf("with no live slave: installs %+v, orphans %v", installs, orphans)
		}
	})
}

// TestReorganizeHoldsOnlyAfterCutOver applies a planned pairing: both
// endpoints get the directive, and the supplier keeps the group's tuples
// until its snapshot has streamed out — the master withholds them only from
// the announced cut-over on.
func TestReorganizeHoldsOnlyAfterCutOver(t *testing.T) {
	cfg := smokeConfig()
	cfg.Slaves = 4
	m := testMaster(t, cfg)
	setOcc(m, 0.9, 0.001, 0.2, 0.002)
	m.reorganize(9)
	if len(m.inflight) != 1 {
		t.Fatalf("inflight moves = %d, want 1", len(m.inflight))
	}
	for _, mi := range m.inflight {
		if m.heldGroup[mi.group] {
			t.Fatal("moved group held before the supplier announced its cut-over")
		}
	}
	if len(m.slots[0].dirs) != 1 || len(m.slots[1].dirs) != 1 {
		t.Fatalf("directives = %d/%d", len(m.slots[0].dirs), len(m.slots[1].dirs))
	}
	if len(m.memMoves) != 0 || m.groupsMoved != 0 {
		t.Fatal("a load-balancing move was tracked as membership-driven")
	}
}
