// Package event is the typed message plane: one canonical typed record
// (the Table I schema as a struct, not a string) that flows from the
// connector through the streams bus and the LDMS transport into DSOS
// ingest, with JSON produced lazily and exactly once at boundaries that
// actually need text (replay files, dsosql/webui output, golden tables).
//
// The package complements internal/jsonmsg rather than replacing it:
// jsonmsg owns the schema (jsonmsg.Table) and the paper's three encoders;
// event owns the record lifecycle — lazy encode caching, lazy parse
// caching, pooled frame buffers, the receive-side slab arena, and the
// compact binary codec a typed record travels and rests in inside batch
// bodies (batch frames, durable-stream entries). The determinism contract is
// unchanged: encoder overhead is charged to the rank in *virtual* time at
// the connector (jsonmsg.Encoder.SimCost), so deferring the real encode
// cannot perturb any seeded table or figure.
package event

import (
	"sync"
	"sync/atomic"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/obs"
	"darshanldms/internal/streams"
)

// Record is one connector event with a lazily materialized, cached
// payload. It is bidirectional: a record built from typed fields
// (NewRecord) encodes JSON at most once, on the first Payload call; a
// record built from wire bytes (FromPayload) parses at most once, on the
// first Fields call. Either way the other representation is cached, so a
// message fanned out to N stores pays for at most one conversion total —
// the old pipeline paid one encode at the connector plus one parse per
// store.
//
// Record is safe for concurrent use: the TCP transport hands one record
// to multiple goroutines.
type Record struct {
	mu      sync.Mutex
	msg     *jsonmsg.Message // typed fields; nil until first Fields on a bytes-first record
	codec   jsonmsg.Encoder  // renders msg; nil defaults to FastEncoder
	payload []byte           // cached wire bytes; nil until first Payload on a typed-first record
	err     error            // sticky parse error of a bytes-first record
	counter *atomic.Uint64   // optional: counts bytes actually encoded
	spans   []obs.Span       // hop trace; only grows while obs tracing is on
	slab    *Slab            // non-nil for slab-owned records (Slab.Wrap)
}

// NewRecord builds a typed-first record. codec chooses the JSON rendering
// used if and when a text boundary asks for bytes; nil means the fast
// encoder. The message is retained, not copied — callers must not mutate
// it after publishing.
func NewRecord(msg *jsonmsg.Message, codec jsonmsg.Encoder) *Record {
	return &Record{msg: msg, codec: codec}
}

// FromPayload builds a bytes-first record around received wire bytes. The
// bytes are retained, not copied. Fields parses them on first use and
// caches the result, so N consumers of one received message parse once.
func FromPayload(data []byte) *Record {
	return &Record{payload: data}
}

// CountEncodes registers an optional counter that is credited with
// len(payload) each time a lazy encode actually happens (the connector
// uses this for its bytes-encoded statistic). Returns the record.
func (r *Record) CountEncodes(c *atomic.Uint64) *Record {
	r.mu.Lock()
	r.counter = c
	r.mu.Unlock()
	return r
}

// Payload returns the record's wire bytes, encoding them on first use and
// caching the result. Callers must not mutate the returned slice.
func (r *Record) Payload() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.payload == nil && r.msg != nil {
		codec := r.codec
		if codec == nil {
			codec = jsonmsg.FastEncoder{}
		}
		r.payload = codec.Encode(r.msg)
		if r.counter != nil {
			r.counter.Add(uint64(len(r.payload)))
		}
	}
	return r.payload
}

// Fields returns the typed message, parsing the wire bytes on first use
// for a bytes-first record. The result is shared and cached — callers
// must not mutate it.
func (r *Record) Fields() (*jsonmsg.Message, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.msg == nil && r.err == nil {
		r.msg, r.err = jsonmsg.Parse(r.payload)
	}
	return r.msg, r.err
}

// TypedFields returns the typed message only if it is already
// materialized (typed-first record, or bytes-first after a successful
// Fields). It never triggers a parse; the batch codec uses it to decide
// between the compact typed encoding and opaque payload bytes.
func (r *Record) TypedFields() *jsonmsg.Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.msg
}

// Fields extracts the typed message from a streams message whatever its
// carrier form: the cached typed record when present, otherwise a parse
// of the literal payload bytes (the legacy path, kept for raw
// PublishJSON publishers and peers that speak only JSON frames).
func Fields(m streams.Message) (*jsonmsg.Message, error) {
	if r, ok := m.Record.(*Record); ok {
		return r.Fields()
	}
	return jsonmsg.Parse(m.Data)
}
