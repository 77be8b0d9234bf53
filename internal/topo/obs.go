package topo

import (
	"fmt"

	"darshanldms/internal/obs"
)

// Collect registers scrape-time collectors for the tree's control-plane
// state: cumulative re-homes and heartbeat misses, plus a liveness gauge
// and current-parent edge per member. Costs nothing until a snapshot.
func (t *Tree) Collect(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(emit func(string, float64)) {
		t.mu.Lock()
		defer t.mu.Unlock()
		emit("topo_tree_rehomes_total", float64(t.rehomes))
		emit("topo_tree_heartbeat_misses_total", float64(t.misses))
		for _, name := range t.order {
			m := t.members[name]
			up := 0.0
			if m.alive {
				up = 1.0
			}
			emit(fmt.Sprintf("topo_tree_member_up{member=%q}", name), up)
			if m.parent != "" {
				emit(fmt.Sprintf("topo_tree_uplink{child=%q,parent=%q}", name, m.parent), 1)
			}
		}
	})
}

// Collect registers scrape-time collectors for the shard plane:
// membership and migration counters.
func (h *HashCluster) Collect(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(emit func(string, float64)) {
		st := h.Stats()
		emit("topo_shard_members", float64(st.Members))
		emit("topo_shard_migrations_total", float64(st.Migrations))
		emit("topo_shard_moved_total", float64(st.Moved))
	})
}
