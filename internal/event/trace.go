package event

import (
	"time"

	"darshanldms/internal/obs"
)

// spans is the record's trace: one obs.Span per pipeline hop crossed.
// The field lives behind the record mutex with everything else; it is
// nil (and stays nil — zero allocation) unless obs tracing is on.
//
// Stamp implements streams.Stamper, so an instrumented bus stamps every
// typed record it fans out without the streams package importing event.

// Stamp appends a hop crossing to the record's trace. It is a no-op
// unless process-wide span tracing is enabled (obs.SetTracing), keeping
// the off state allocation-free and bit-identical.
func (r *Record) Stamp(hop string, at time.Duration) {
	if !obs.TracingEnabled() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, obs.Span{Hop: hop, At: at})
	r.mu.Unlock()
}

// Spans returns a copy of the record's trace in stamping order.
func (r *Record) Spans() []obs.Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]obs.Span, len(r.spans))
	copy(out, r.spans)
	return out
}
