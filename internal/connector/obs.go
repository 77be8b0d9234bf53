package connector

import "darshanldms/internal/obs"

// Instrument attaches the connector to a registry: the per-event
// encoder-cost histogram (virtual nanoseconds — SimCost is what the
// rank is charged, so the histogram is deterministic under a fixed
// seed). Counter aggregates are exported at scrape time via Collect.
func (c *Connector) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.encodeCost = reg.Histogram("dlc_connector_encode_cost_vns")
}

// Collect registers one scrape-time collector exporting the summed
// Stats of a connector group (harness runs attach one connector per
// rank; a single aggregate is what a diagnosis wants). The connectors
// slice is read in order at scrape time — pass it fully built.
func Collect(reg *obs.Registry, connectors []*Connector) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(emit func(string, float64)) {
		var sum Stats
		for _, c := range connectors {
			if c == nil {
				continue
			}
			s := c.Stats()
			sum.Detected += s.Detected
			sum.Published += s.Published
			sum.Sampled += s.Sampled
			sum.Filtered += s.Filtered
			sum.Dropped += s.Dropped
			sum.Bytes += s.Bytes
		}
		emit("dlc_connector_ranks", float64(len(connectors)))
		emit("dlc_connector_detected_total", float64(sum.Detected))
		emit("dlc_connector_published_total", float64(sum.Published))
		emit("dlc_connector_sampled_total", float64(sum.Sampled))
		emit("dlc_connector_filtered_total", float64(sum.Filtered))
		emit("dlc_connector_dropped_total", float64(sum.Dropped))
		emit("dlc_connector_encoded_bytes_total", float64(sum.Bytes))
	})
}
