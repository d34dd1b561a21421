package core

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"sort"
)

// The master's placement policy, as pure functions of one snapshot of its
// controller state (placementView): planBoundary decides a reorganization
// boundary, planEviction re-creates a crashed slave's groups. Neither does
// any I/O or reads a clock; the master applies what they return (reorganize,
// handleDeath). Random choices draw from the caller's rng, so a seed fixes
// every placement.

// slotView is one slave slot as the planner sees it.
type slotView struct {
	occ        float64
	haveOcc    bool // occ is a report, not the zero before one
	active     bool
	activating bool // Activate scheduled, not yet delivered
	busy       bool // a move, directive or (de)activation is unfinished
	free       []int32
	// The slot's membership phase (master.go): leaving and joining are
	// roster phases, and member holds in any roster phase.
	leaving, member, joining bool
}

// live reports whether the slot may receive groups: an active roster member
// that is staying.
func (s *slotView) live() bool { return s.active && s.member && !s.leaving }

// placementView is the state a plan reads: the slots, the degree of
// declustering, and the configuration's thresholds, β, Adaptive, Replicate
// and group count. A slot's free groups are those it owns that no movement
// touches, in ascending id: random draws index them.
type placementView struct {
	cfg    *Config
	slots  []slotView
	active int
}

// buddyAfter returns the roster member every slave-side replicator picks as
// src's buddy — the next member slot after src, cyclically, the walk
// updateRoster performs — so a promotion lands where the owner has been
// shipping its deltas. -1 when src has no possible buddy.
func (v *placementView) buddyAfter(src int32) int32 {
	for k := 1; k < len(v.slots); k++ {
		if j := (int(src) + k) % len(v.slots); v.slots[j].member {
			return int32(j)
		}
	}
	return -1
}

// move is one placement decision: group streams from slave from to slave to,
// or, with from < 0, is installed on to without a supplier (-1 empty,
// promoteFrom(src) from a replica). tracked marks a membership-driven move,
// whose held time is rebalance stall.
type move struct {
	group, from, to int32
	tracked         bool
}

// boundaryPlan is what one reorganization boundary decides: moves in issue
// order, the slaves to (de)activate, the graceful leavers whose drain begins
// and the mid-run joiners activated with the groups peeled toward each.
type boundaryPlan struct {
	moves                []move
	activate, deactivate []int32
	drained              []int32
	joins                []struct{ slave, groups int32 }
}

// planBoundary decides one reorganization boundary. Membership goes first:
// graceful leavers drain to the live slaves, and each slave admitted since
// the last boundary is activated with groups peeled off the loaded owners
// (heaviest reported occupancy first, round-robin, never emptying an owner)
// toward a 1/(n+1) share. Slaves left inactive by §V-A or InitialActive are
// not joiners. Leavers, joiners and donors, not drain targets, sit out the rest.
//
// Then §IV-C and §V-A: live, idle slaves that have reported are suppliers
// above ThSup (with a free group) and consumers below ThCon. With Adaptive,
// no supplier shrinks the degree of declustering by draining the lightest
// consumer, and N_sup > β·N_con grows it by activating the lowest inactive
// member at the consumers' head. The heaviest supplier pairs with the
// lightest consumer, and each pair moves one random free group.
func planBoundary(v *placementView, rng *rand.Rand) boundaryPlan {
	var p boundaryPlan
	sl := slices.Clone(v.slots)
	for i := range sl {
		if sl[i].leaving && sl[i].active && !sl[i].busy && p.drain(sl, int32(i), true) {
			sl[i].busy = true
			p.drained = append(p.drained, int32(i))
		}
	}
	for j := range sl {
		if sl[j].joining && !sl[j].busy {
			sl[j].busy, sl[j].activating = true, true
			p.activate = append(p.activate, int32(j))
			n := p.rebalance(sl, int32(j), v.cfg.NumGroups()/(v.active+1), rng)
			p.joins = append(p.joins, struct{ slave, groups int32 }{int32(j), n})
		}
	}

	var sups, cons []int32
	for i := range sl {
		s := &sl[i]
		if !s.live() || s.busy || !s.haveOcc {
			continue
		}
		switch {
		case s.occ > v.cfg.ThSup && len(s.free) > 0:
			sups = append(sups, int32(i))
		case s.occ < v.cfg.ThCon:
			cons = append(cons, int32(i))
		}
	}
	// Slave ID breaks occupancy ties.
	sort.SliceStable(sups, func(a, b int) bool { return sl[sups[a]].occ > sl[sups[b]].occ })
	sort.SliceStable(cons, func(a, b int) bool { return sl[cons[a]].occ < sl[cons[b]].occ })

	if v.cfg.Adaptive {
		if len(sups) == 0 {
			if v.active > 1 && len(cons) > 0 {
				p.drain(sl, cons[0], false)
			}
			return p
		}
		if float64(len(sups)) > v.cfg.Beta*float64(len(cons)) {
			for j := range sl {
				if s := &sl[j]; !s.active && !s.activating && s.member && !s.leaving {
					p.activate = append(p.activate, int32(j))
					cons = append([]int32{int32(j)}, cons...)
					break
				}
			}
		}
	}
	for k := 0; k < min(len(sups), len(cons)); k++ {
		free := sl[sups[k]].free
		p.moves = append(p.moves, move{group: free[rng.IntN(len(free))], from: sups[k], to: cons[k]})
	}
	return p
}

// drain moves every free group of victim to the other live, idle slaves
// (lightest first, round-robin) and schedules the victim's deactivation.
// Without a target it decides nothing and returns false.
func (p *boundaryPlan) drain(sl []slotView, victim int32, tracked bool) bool {
	var targets []int32
	for i := range sl {
		if int32(i) != victim && sl[i].live() && !sl[i].busy {
			targets = append(targets, int32(i))
		}
	}
	if len(targets) == 0 {
		return false
	}
	sort.SliceStable(targets, func(a, b int) bool { return sl[targets[a]].occ < sl[targets[b]].occ })
	for k, g := range sl[victim].free {
		p.moves = append(p.moves, move{group: g, from: victim, to: targets[k%len(targets)], tracked: tracked})
	}
	p.deactivate = append(p.deactivate, victim)
	return true
}

// rebalance moves up to share free groups toward joiner j from the live,
// idle slaves, one random group per donor per round, and returns how many.
// A donor that gives becomes busy.
func (p *boundaryPlan) rebalance(sl []slotView, j int32, share int, rng *rand.Rand) int32 {
	type donor struct {
		id   int32
		free []int32
	}
	var donors []donor
	for k := range sl {
		if sl[k].live() && !sl[k].busy && len(sl[k].free) > 0 {
			donors = append(donors, donor{int32(k), slices.Clone(sl[k].free)})
		}
	}
	// Heaviest first; more free groups, then slave ID, break ties.
	slices.SortFunc(donors, func(a, b donor) int {
		return cmp.Or(cmp.Compare(sl[b.id].occ, sl[a.id].occ), cmp.Compare(len(b.free), len(a.free)), cmp.Compare(a.id, b.id))
	})
	moved := 0
	for progress := true; progress && moved < share; {
		progress = false
		for d := 0; d < len(donors) && moved < share; d++ {
			dn := &donors[d]
			if len(dn.free) <= 1 {
				continue // never empty a donor
			}
			k := rng.IntN(len(dn.free))
			p.moves = append(p.moves, move{group: dn.free[k], from: dn.id, to: j, tracked: true})
			dn.free = slices.Delete(dn.free, k, k+1)
			sl[dn.id].busy = true
			moved++
			progress = true
		}
	}
	return int32(moved)
}

// planEviction re-creates the free groups of dead slave i. With Replicate a
// group is promoted on the buddy of the slave whose shadow holds it (lostSrc
// names the supplier of a group lost in transit, else it is i); otherwise,
// or with no buddy, the live slaves adopt it empty, round-robin; adopted
// counts those. orphans are the groups no survivor can take.
func planEviction(v *placementView, i int32, lostSrc map[int32]int32) (installs []move, orphans []int32, adopted int) {
	var targets []int32
	for k := range v.slots {
		if v.slots[k].live() {
			targets = append(targets, int32(k))
		}
	}
	for _, g := range v.slots[i].free {
		src, ok := lostSrc[g]
		if !ok {
			src = i
		}
		if to := v.buddyAfter(src); v.cfg.Replicate && to >= 0 {
			installs = append(installs, move{group: g, from: promoteFrom(src), to: to, tracked: true})
		} else if len(targets) == 0 {
			orphans = append(orphans, g)
		} else {
			installs = append(installs, move{group: g, from: -1, to: targets[adopted%len(targets)], tracked: true})
			adopted++
		}
	}
	return installs, orphans, adopted
}
