package dsos

import (
	"darshanldms/internal/obs"
)

// Instrument attaches the cluster to the obs plane. The clock times
// replication quorums (virtual time in the sim zone — where inserts
// advance no virtual clock, so the histogram is deterministic; wall
// time in a real dsosd). A scrape-time collector exports the per-shard
// view: object counts, cumulative inserts, WAL appends and replays, and
// up/down state. It walks the placement's members at scrape time, in
// their deterministic order, so a shard added or removed by a live
// rebalance enters or leaves the snapshot with it.
func (c *Cluster) Instrument(reg *obs.Registry, clock obs.Clock) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	c.obsClock = clock
	c.quorumLat = reg.Histogram("dlc_dsos_quorum_latency_ns")
	c.mu.Unlock()
	reg.RegisterCollector(func(emit func(string, float64)) {
		c.mu.Lock()
		p := c.place
		origins := c.origin
		c.mu.Unlock()
		members := p.Members()
		emit("dlc_dsos_replication", float64(len(p.Groups()[0])))
		emit("dlc_dsos_origins_allocated_total", float64(origins))
		emit("dlc_dsos_shards", float64(len(members)))
		for _, d := range members {
			labels := `{shard="` + d.Name + `"}`
			emit("dlc_dsos_shard_objects"+labels, float64(d.Count(DarshanSchemaName)))
			emit("dlc_dsos_shard_inserts_total"+labels, float64(d.Inserts()))
			emit("dlc_dsos_shard_wal_recovered_total"+labels, float64(d.Recovered()))
			up := 0.0
			if d.Up() {
				up = 1
			}
			emit("dlc_dsos_shard_up"+labels, up)
			if w := d.WAL(); w != nil {
				emit("dlc_dsos_shard_wal_appended_total"+labels, float64(w.Appended()))
			}
		}
	})
}

// Up reports whether the daemon is serving (not crashed, no injected
// fault).
func (d *Daemon) Up() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cont != nil && d.fault == nil
}

// Inserts returns the cumulative count of successfully acked inserts on
// this daemon (replica writes count individually; survives crashes,
// unlike Count, which reflects the rebuilt shard).
func (d *Daemon) Inserts() uint64 {
	return d.inserts.Load()
}

// ClusterHealth returns a /healthz probe that fails when any owner group
// has every member down (queries are hiding data, and under an every-owner
// ack rule inserts for its keys are refused) or when fewer live daemons
// remain than the replication factor (inserts can fail outright). The
// error names the dark groups and the down daemons, so the probe
// distinguishes a one-shard blip from a lost replica set.
func (c *Cluster) ClusterHealth() func() error {
	return func() error {
		p := c.Placement()
		up := 0
		var down []string
		for _, d := range p.Members() {
			if d.Up() {
				up++
			} else {
				down = append(down, d.Name)
			}
		}
		groups := p.Groups()
		if lost := lostGroups(groups, func(d *Daemon) bool { return !d.Up() }); len(lost) > 0 {
			return &PartialError{Failed: down, Groups: lost}
		}
		if up < len(groups[0]) {
			return ErrPartial
		}
		return nil
	}
}
