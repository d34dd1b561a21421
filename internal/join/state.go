package join

import (
	"fmt"
	"sort"

	"streamjoin/internal/exthash"
	"streamjoin/internal/tuple"
)

// State is a partition-group's movable state: the fine-tuning directory
// shape and both stream windows in temporal order. It is what a supplier's
// state mover extracts and a consumer installs (§IV-C).
type State struct {
	ID          int32
	GlobalDepth uint
	Buckets     []exthash.Spec
	Window      [2][]tuple.Packed
}

// WindowTuples reports the total window tuples carried.
func (st *State) WindowTuples() int { return len(st.Window[0]) + len(st.Window[1]) }

// Shape returns the group's movable state without its windows: the
// fine-tuning directory shape a consumer rebuilds the group under.
func (g *Group) Shape() State {
	global, specs := g.dir.Shape()
	return State{ID: g.id, GlobalDepth: global, Buckets: specs}
}

// Extract snapshots the group's movable state. The group should no longer be
// processed afterwards (the caller removes it from its Module).
func (g *Group) Extract() State {
	st := g.Shape()
	for s := 0; s < 2; s++ {
		var all []tuple.Packed
		g.dir.Buckets(func(_ uint32, _ uint, b *bucket) {
			all = append(all, b.w[s].Snapshot()...)
		})
		// Buckets are each temporally ordered; restore a global temporal
		// order. Stable sort keeps the deterministic per-bucket order on
		// timestamp ties.
		sort.SliceStable(all, func(i, j int) bool { return all[i].TS < all[j].TS })
		st.Window[s] = all
	}
	return st
}

// Install rebuilds a group from moved state and adds it to the module.
func (m *Module) Install(st State) error {
	if _, ok := m.groups[st.ID]; ok {
		return fmt.Errorf("join: install: group %d already owned", st.ID)
	}
	dir, err := exthash.FromShape(st.GlobalDepth, st.Buckets, func(uint32, uint) *bucket {
		return newBucket(m.cfg.Queries)
	})
	if err != nil {
		return fmt.Errorf("join: install group %d: %w", st.ID, err)
	}
	dir.SetMaxDepth(m.cfg.MaxDepth)
	g := &Group{cfg: &m.cfg, id: st.ID, dir: dir}
	for s := 0; s < 2; s++ {
		for _, p := range st.Window[s] {
			g.bucketFor(p.Key).ingestPacked(s, p)
		}
	}
	m.groups[st.ID] = g
	return nil
}
