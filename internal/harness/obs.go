package harness

import (
	"sort"
	"strings"

	"darshanldms/internal/obs"
	"darshanldms/internal/streams"
)

// This file wires the harness pipelines into the obs plane. Every
// chaos-soak and fault-campaign run carries its own per-run registry
// and the renderers embed the snapshot, so a report always shows the
// per-stage breakdown — where messages piled up, were absorbed or were
// dropped — next to the invariant audit. All collectors read stats the
// pipeline already keeps, at snapshot time only, so the runs (and the
// seeded tables derived from them) are bit-identical with or without
// the snapshot being taken.

// pipelineHops are the trace hops of the full harness pipeline in flow
// order: the connector's publish hook, the per-node daemon bus, the two
// aggregation levels, the dedup layer and the final store. The
// end-to-end trace test asserts a stored record was stamped at every
// one of them.
var pipelineHops = []string{
	hopConnector, hopNodeBus, hopHeadBus, hopRemoteBus, hopDedup, hopStore,
}

// Harness hop names. The connector, dedup and store stages stamp their
// own package-level hop names; these constants mirror them (the
// packages keep theirs unexported) so the harness names one flow.
const (
	hopConnector = "connector"
	hopNodeBus   = "node"
	hopHeadBus   = "agg-head"
	hopRemoteBus = "agg-remote"
	hopDedup     = "dedup"
	hopStore     = "store"
)

// instrumentBuses stamps the two-level pipeline's buses with their trace
// hops and exports their series: the node daemons' buses as one group,
// then the head and the remote aggregator's.
func instrumentBuses(reg *obs.Registry, clock obs.Clock, nodes []*streams.Bus, head, remote *streams.Bus) {
	for _, b := range nodes {
		b.Instrument(hopNodeBus, clock)
	}
	collectBusGroup(reg, hopNodeBus, nodes)
	head.Instrument(hopHeadBus, clock)
	head.Collect(reg, hopHeadBus)
	remote.Instrument(hopRemoteBus, clock)
	remote.Collect(reg, hopRemoteBus)
}

// collectBusGroup exports one summed set of dlc_bus_* series for a
// group of same-stage buses (the per-node daemon buses): per-node
// series would swamp a report with dozens of identical rows, and a
// stage-level diagnosis wants the aggregate anyway. Tags are the sorted
// union across the group, so the snapshot is deterministic.
func collectBusGroup(reg *obs.Registry, hop string, buses []*streams.Bus) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(emit func(string, float64)) {
		tagSet := map[string]bool{}
		for _, b := range buses {
			for _, tag := range b.StatTags() {
				tagSet[tag] = true
			}
		}
		tags := make([]string, 0, len(tagSet))
		for tag := range tagSet {
			tags = append(tags, tag)
		}
		sort.Strings(tags)
		for _, tag := range tags {
			var published, delivered, dropped, subs uint64
			for _, b := range buses {
				st := b.Stats(tag)
				published += st.Published
				delivered += st.Delivered
				dropped += st.Dropped
				subs += uint64(b.SubscriberCount(tag))
			}
			labels := `{bus="` + hop + `",tag="` + tag + `"}`
			emit("dlc_bus_published_total"+labels, float64(published))
			emit("dlc_bus_delivered_total"+labels, float64(delivered))
			emit("dlc_bus_dropped_total"+labels, float64(dropped))
			emit("dlc_bus_subscribers"+labels, float64(subs))
		}
	})
}

// renderObsSection appends a titled, indented per-stage snapshot to a
// report. Snapshots are already sorted by series name.
func renderObsSection(b *strings.Builder, title string, samples []obs.Sample) {
	if len(samples) == 0 {
		return
	}
	b.WriteString("\n" + title + "\n")
	for _, line := range strings.Split(strings.TrimRight(obs.RenderSamples(samples), "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
}
