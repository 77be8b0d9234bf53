package streams

import (
	"darshanldms/internal/obs"
)

// Collect registers a scrape-time collector that exports the bus's
// per-tag fan-out counters under the given hop name:
//
//	dlc_bus_published_total{bus="<hop>",tag="<tag>"}
//	dlc_bus_delivered_total{bus="<hop>",tag="<tag>"}
//	dlc_bus_dropped_total{bus="<hop>",tag="<tag>"}
//	dlc_bus_errored_total{bus="<hop>",tag="<tag>"}
//	dlc_bus_subscribers{bus="<hop>",tag="<tag>"}
//
// Collection reads the stats the bus already keeps, so the publish hot
// path is untouched. Tag iteration is sorted (StatTags), keeping the
// snapshot deterministic.
func (b *Bus) Collect(reg *obs.Registry, hop string) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(emit func(string, float64)) {
		for _, tag := range b.StatTags() {
			st := b.Stats(tag)
			labels := `{bus="` + hop + `",tag="` + tag + `"}`
			emit("dlc_bus_published_total"+labels, float64(st.Published))
			emit("dlc_bus_delivered_total"+labels, float64(st.Delivered))
			emit("dlc_bus_dropped_total"+labels, float64(st.Dropped))
			emit("dlc_bus_errored_total"+labels, float64(st.Errored))
			emit("dlc_bus_subscribers"+labels, float64(b.SubscriberCount(tag)))
		}
	})
}

// Collect registers a scrape-time collector for the stream's durable
// accounting and every consumer's delivery state:
//
//	dlc_stream_msgs{stream="<name>"}                  retained messages
//	dlc_stream_bytes{stream="<name>"}                 retained payload bytes
//	dlc_stream_first_seq / dlc_stream_last_seq        retained window edges
//	dlc_stream_appended_total{stream=...}             ever appended
//	dlc_stream_dropped_total{stream=...,reason=...}   retention drops by reason
//	dlc_stream_wal_errors_total{stream=...}           failed segment appends
//	dlc_stream_consumer_ack_floor{stream=...,consumer=...}
//	dlc_stream_consumer_lag{stream=...,consumer=...}  head minus floor: now, or the
//	                                                  deepest any fetch faced since the
//	                                                  last scrape if that was deeper
//	dlc_stream_consumer_inflight{stream=...,consumer=...}
//	dlc_stream_consumer_redelivered_total{...}
//	dlc_stream_consumer_missed_total{...}             lagged past retention
//	dlc_stream_consumer_deadlettered_total{...}
//
// Like the bus collector it only reads state the stream already keeps —
// append and fetch paths are untouched — and all iteration is sorted. The
// lag gauge holds its peak between scrapes: a consumer that is woken by the
// append drains a burst in less than a scrape interval, and a sampled
// instantaneous lag would report a backlog of thousands as zero.
func (s *DurableStream) Collect(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(emit func(string, float64)) {
		st := s.Stats()
		labels := `{stream="` + st.Name + `"}`
		emit("dlc_stream_msgs"+labels, float64(st.Msgs))
		emit("dlc_stream_bytes"+labels, float64(st.Bytes))
		emit("dlc_stream_first_seq"+labels, float64(st.FirstSeq))
		emit("dlc_stream_last_seq"+labels, float64(st.LastSeq))
		emit("dlc_stream_appended_total"+labels, float64(st.Appended))
		emit("dlc_stream_wal_errors_total"+labels, float64(st.WALErrors))
		for r := DropReason(0); r < dropReasons; r++ {
			emit(`dlc_stream_dropped_total{stream="`+st.Name+`",reason="`+r.String()+`"}`,
				float64(st.DroppedFor[r]))
		}
		for _, cs := range s.consumerStats(true) {
			cl := `{stream="` + st.Name + `",consumer="` + cs.Name + `"}`
			emit("dlc_stream_consumer_ack_floor"+cl, float64(cs.AckFloor))
			emit("dlc_stream_consumer_lag"+cl, float64(max(cs.Lag, cs.LagPeak)))
			emit("dlc_stream_consumer_inflight"+cl, float64(cs.Inflight))
			emit("dlc_stream_consumer_redelivered_total"+cl, float64(cs.Redelivered))
			emit("dlc_stream_consumer_missed_total"+cl, float64(cs.Missed))
			emit("dlc_stream_consumer_deadlettered_total"+cl, float64(cs.DeadLettered))
		}
	})
}
