// Package streams implements the LDMS Streams publish/subscribe bus the
// connector publishes its I/O event messages to.
//
// Semantics follow the paper's description of the (enhanced) LDMS Streams
// capability: publishers and subscribers rendezvous on a stream *tag*;
// payloads are variable-length strings or JSON; delivery is best-effort —
// the bus does not cache, so a message published while no subscriber is
// attached is simply lost (and counted as dropped); there is no reconnect
// or resend.
package streams

import (
	"fmt"
	"sort"
	"sync"
)

// MsgType distinguishes the two payload formats LDMS Streams supports.
type MsgType int

// Payload formats.
const (
	TypeString MsgType = iota
	TypeJSON
)

func (t MsgType) String() string {
	if t == TypeJSON {
		return "json"
	}
	return "string"
}

// Carrier is a lazily encoded payload: a typed record that can produce
// its wire bytes on demand, caching them so the encode happens at most
// once. *event.Record is the canonical implementation; the bus itself
// stays payload-agnostic and never forces the encode.
type Carrier interface {
	Payload() []byte
}

// Message is one published stream message. Producer and Seq, when set,
// form the message's delivery identity: the connector stamps each message
// with its producer (node) name and a per-producer sequence number so
// downstream stores can deduplicate at-least-once replays (an uplink
// resuming its durable cursor) without inspecting the payload. They
// ride alongside the payload — the JSON bytes the paper specifies are
// unchanged — and are zero for messages published without stamping.
//
// A message carries its payload one of two ways: Data holds literal bytes
// (the legacy eager form, still used by PublishJSON and raw
// TCP frames), while Record holds a typed record that encodes lazily at
// the first text boundary that needs bytes. Consumers that only need the
// wire bytes call Payload(); consumers that need fields use the typed
// record directly (see internal/event.Fields) and never pay for JSON.
type Message struct {
	Tag      string
	Type     MsgType
	Data     []byte
	Record   Carrier
	Producer string
	Seq      uint64
}

// Payload returns the message's encoded bytes: the literal Data when set,
// otherwise the (cached, encoded-at-most-once) bytes of the typed record.
// A nil return means the message carries no payload at all.
func (m Message) Payload() []byte {
	if m.Data != nil {
		return m.Data
	}
	if m.Record != nil {
		return m.Record.Payload()
	}
	return nil
}

// Handler consumes delivered messages.
type Handler func(Message)

// Stats counts bus activity for one tag. The three outcome counters are
// disjoint: a publish that reaches at least one receiver (handler or
// bound durable stream) counts toward Delivered per receiver, a handler
// that panics (or a stream append that fails) counts toward Errored
// instead, and Dropped counts only publishes no receiver accepted —
// a failed delivery is an error, not a drop, and the two are never
// conflated.
type Stats struct {
	Published uint64 // Publish calls
	Delivered uint64 // successful receiver deliveries (handlers + stream appends)
	Dropped   uint64 // publishes that reached no receiver at all
	Errored   uint64 // handler panics and failed stream appends
}

// Bus is a stream bus, the per-daemon rendezvous point. It is safe for
// concurrent use (the TCP transport delivers from multiple connections).
type Bus struct {
	mu    sync.Mutex
	subs  map[string][]*Subscription
	wsubs []*Subscription // wildcard-filter subscriptions, subscribe order
	stats map[string]*Stats
	seq   int
	// streams are the bound durable sinks: every published message whose
	// subject matches a bound stream's filters is appended there before
	// handlers run. streamNames keeps the deterministic append order.
	streams     map[string]*DurableStream
	streamNames []string
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{subs: map[string][]*Subscription{}, stats: map[string]*Stats{}}
}

// Subscription is an active tag subscription; Close detaches it.
type Subscription struct {
	bus     *Bus
	tag     string // exact tag, or a wildcard subject filter
	id      int
	handler Handler
	wild    bool // tag is a wildcard filter, kept in bus.wsubs
	closed  bool
}

// Tag returns the subscribed tag.
func (s *Subscription) Tag() string { return s.tag }

// Close detaches the subscription; messages published afterwards are no
// longer delivered to it.
func (s *Subscription) Close() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.wild {
		for i, sub := range s.bus.wsubs {
			if sub == s {
				s.bus.wsubs = append(s.bus.wsubs[:i], s.bus.wsubs[i+1:]...)
				break
			}
		}
		return
	}
	list := s.bus.subs[s.tag]
	for i, sub := range list {
		if sub == s {
			s.bus.subs[s.tag] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(s.bus.subs[s.tag]) == 0 {
		delete(s.bus.subs, s.tag)
	}
}

// Subscribe attaches h to tag. Messages published before subscription are
// not replayed (the bus does not cache). A tag containing a subject
// wildcard ("darshan.*.posix", "darshan.>") subscribes to every matching
// subject; a plain tag rendezvouses exactly as before. Delivery order is
// deterministic: exact subscribers first, then wildcard subscribers in
// subscription order.
func (b *Bus) Subscribe(tag string, h Handler) *Subscription {
	if h == nil {
		panic("streams: nil handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	sub := &Subscription{bus: b, tag: tag, id: b.seq, handler: h}
	if HasWildcard(tag) {
		sub.wild = true
		b.wsubs = append(b.wsubs, sub)
	} else {
		b.subs[tag] = append(b.subs[tag], sub)
	}
	return sub
}

// Publish delivers msg to all current subscribers of its tag — exact
// subscribers, wildcard subscribers whose filter matches, and bound
// durable streams whose subjects match — and returns how many received it
// (0 means the message was dropped). Outcomes are accounted disjointly: a
// handler that panics, or a stream append that fails, counts toward the
// tag's Errored (never its Dropped) and does not count as a receiver; a
// publish is Dropped only when no receiver accepted it at all.
func (b *Bus) Publish(msg Message) int {
	one := [1]Message{msg}
	return b.publishRun(one[:])
}

// PublishBatch publishes msgs in order with Publish's delivery and
// accounting, except for how bound streams are fed: each run of
// consecutive same-tag messages — a received frame is almost always one
// run — reaches every stream that captures the tag as ONE AppendBatch
// (one segment entry, one write) before any handler sees the run. The
// batch append is all or nothing, so when it fails every message of the
// run counts as Errored for that stream and none as received. Handlers
// then get the messages one at a time, exactly as Publish delivers them.
// It returns the total number of receivers across the batch.
func (b *Bus) PublishBatch(msgs []Message) int {
	total := 0
	for len(msgs) > 0 {
		n := 1
		for n < len(msgs) && msgs[n].Tag == msgs[0].Tag {
			n++
		}
		total += b.publishRun(msgs[:n])
		msgs = msgs[n:]
	}
	return total
}

// routeLocked returns tag's counters, the handlers subscribed to it and
// the bound streams that capture it (b.mu held).
func (b *Bus) routeLocked(tag string) (*Stats, []*Subscription, []*DurableStream) {
	st, ok := b.stats[tag]
	if !ok {
		st = &Stats{}
		b.stats[tag] = st
	}
	list := append([]*Subscription(nil), b.subs[tag]...)
	for _, sub := range b.wsubs {
		if MatchSubject(sub.tag, tag) {
			list = append(list, sub)
		}
	}
	var sinks []*DurableStream
	for _, name := range b.streamNames {
		if s := b.streams[name]; s.Matches(tag) {
			sinks = append(sinks, s)
		}
	}
	return st, list, sinks
}

// publishRun publishes a non-empty run of messages sharing one tag.
func (b *Bus) publishRun(run []Message) int {
	b.mu.Lock()
	st, list, sinks := b.routeLocked(run[0].Tag)
	st.Published += uint64(len(run))
	b.mu.Unlock()
	// Streams first — persistence before best-effort fan-out — then
	// handlers, all outside the lock so handlers may publish or subscribe.
	stored, failed := 0, 0
	for _, s := range sinks {
		if _, err := s.AppendBatch(run); err != nil {
			failed++
		} else {
			stored++
		}
	}
	var delivered, errored, dropped uint64
	for i := range run {
		received, broken := stored, failed
		for _, sub := range list {
			if deliverSafe(sub.handler, run[i]) {
				received++
			} else {
				broken++
			}
		}
		delivered += uint64(received)
		errored += uint64(broken)
		if received == 0 {
			dropped++
		}
	}
	b.mu.Lock()
	st.Delivered += delivered
	st.Errored += errored
	st.Dropped += dropped
	b.mu.Unlock()
	return int(delivered)
}

// walk is PublishBody's scratch: a body's table and its records' slots.
type walk struct {
	k     batchCtx
	slots []slot
}

var walks = sync.Pool{New: func() any { return new(walk) }}

// PublishBody publishes a received batch body as PublishBatch would its
// decoded messages, without decoding it, when nothing needs them: the
// body is version 2, its records carry one tag other than skip, no
// handler subscribes to it and a bound stream captures it. One walk
// (walkBody) validates it for every such stream, and each appends it as
// it stands. Otherwise it publishes nothing and reports false, and a body
// the walk refused is never stored. in, which may be nil, materializes
// the strings the body spells out. It returns the messages published.
func (b *Bus) PublishBody(version byte, body []byte, in Interner, skip string) (int, bool) {
	b.mu.Lock()
	bound := len(b.streamNames) > 0 // else nothing could take it: skip the walk
	b.mu.Unlock()
	if version != BodyV2 || !bound {
		return 0, false
	}
	w := walks.Get().(*walk)
	defer func() {
		clear(w.slots) // the pool keeps nothing of body
		walks.Put(w)
	}()
	_ = w.k.Reset(BodyV2, in)
	var err error
	if w.slots, err = walkBody(body, &w.k, w.slots[:0]); err != nil {
		return 0, false
	}
	tag := w.slots[0].subject
	for _, sl := range w.slots {
		if sl.subject != tag || tag == skip {
			return 0, false
		}
	}
	b.mu.Lock()
	st, list, sinks := b.routeLocked(tag)
	if len(list) > 0 || len(sinks) == 0 {
		b.mu.Unlock()
		return 0, false
	}
	n := uint64(len(w.slots))
	st.Published += n
	b.mu.Unlock()
	var stored uint64
	for _, s := range sinks {
		if _, err := s.appendBody(body, &w.k.BatchContext, w.slots); err == nil {
			stored++
		}
	}
	b.mu.Lock()
	st.Delivered += n * stored
	st.Errored += n * (uint64(len(sinks)) - stored)
	if stored == 0 {
		st.Dropped += n
	}
	b.mu.Unlock()
	return int(n), true
}

// BodyTally is what PublishIdle booked of a body: its messages, the
// records of the skipped tag, and the opaque payload bytes the messages
// carried.
type BodyTally struct{ Msgs, Skipped, Bytes int }

// PublishIdle books a received version-2 body on an idle bus (Idle), where
// every message would be dropped: each record not of tag skip counts as
// published and dropped under its tag, as PublishBatch would count its
// decoded message, but the body is only walked (walkBody), never decoded.
// It reports false, booking nothing, when the bus is not idle or the body
// does not walk.
func (b *Bus) PublishIdle(body []byte, in Interner, skip string) (BodyTally, bool) {
	var t BodyTally
	if !b.Idle() {
		return t, false // skip the walk
	}
	w := walks.Get().(*walk)
	defer func() {
		clear(w.slots) // the pool keeps nothing of body
		walks.Put(w)
	}()
	_ = w.k.Reset(BodyV2, in)
	var err error
	if w.slots, err = walkBody(body, &w.k, w.slots[:0]); err != nil {
		return t, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.idleLocked() {
		return t, false
	}
	for _, sl := range w.slots {
		if sl.subject == skip {
			t.Skipped++
			continue
		}
		st, ok := b.stats[sl.subject]
		if !ok {
			st = &Stats{}
			b.stats[sl.subject] = st
		}
		st.Published++
		st.Dropped++
		t.Msgs++
		if sl.rec[0] == RecOpaque {
			t.Bytes += int(sl.size)
		}
	}
	return t, true
}

// deliverSafe invokes one handler, absorbing a panic so a broken
// subscriber cannot take down the publisher (or skew the accounting of
// the other receivers). It reports whether the delivery completed.
func deliverSafe(h Handler, msg Message) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	h(msg)
	return true
}

// PublishJSON publishes a JSON payload on tag.
func (b *Bus) PublishJSON(tag string, data []byte) int {
	return b.Publish(Message{Tag: tag, Type: TypeJSON, Data: data})
}

// BindStream attaches a durable stream as a persistent sink: every
// subsequent publish whose subject matches one of the stream's filters is
// appended to it (before best-effort handler fan-out) and the stream
// counts as a receiver. Binding a name that is already bound is an error;
// messages published before the bind are not replayed into the stream.
func (b *Bus) BindStream(s *DurableStream) error {
	if s == nil {
		return fmt.Errorf("streams: bind of a nil stream")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	name := s.Name()
	if b.streams == nil {
		b.streams = map[string]*DurableStream{}
	}
	if _, ok := b.streams[name]; ok {
		return fmt.Errorf("streams: stream %q already bound", name)
	}
	b.streams[name] = s
	b.streamNames = append(b.streamNames, name)
	sort.Strings(b.streamNames)
	return nil
}

// UnbindStream detaches the named stream sink (the stream itself, and
// everything it retains, is untouched). It reports whether the name was
// bound.
func (b *Bus) UnbindStream(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.streams[name]; !ok {
		return false
	}
	delete(b.streams, name)
	for i, n := range b.streamNames {
		if n == name {
			b.streamNames = append(b.streamNames[:i], b.streamNames[i+1:]...)
			break
		}
	}
	return true
}

// Stream returns the bound stream with the given name, or nil.
func (b *Bus) Stream(name string) *DurableStream {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.streams[name]
}

// Stats returns a snapshot of the counters for tag.
func (b *Bus) Stats(tag string) Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	if st, ok := b.stats[tag]; ok {
		return *st
	}
	return Stats{}
}

// Tags returns, sorted, the tags with active subscribers — exact tags
// plus any subscribed wildcard filters.
func (b *Bus) Tags() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.subs)+len(b.wsubs))
	for tag := range b.subs {
		out = append(out, tag)
	}
	for _, sub := range b.wsubs {
		out = append(out, sub.tag)
	}
	sort.Strings(out)
	return out
}

// StatTags returns, sorted, every tag the bus has counters for —
// including tags whose publishes were all dropped for want of a
// subscriber (Tags omits those, having no subscription to report).
func (b *Bus) StatTags() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.stats))
	for tag := range b.stats {
		out = append(out, tag)
	}
	sort.Strings(out)
	return out
}

// Idle reports whether a publish would reach nothing: no handler is
// subscribed and no stream is bound.
func (b *Bus) Idle() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.idleLocked()
}

func (b *Bus) idleLocked() bool {
	return len(b.subs) == 0 && len(b.wsubs) == 0 && len(b.streamNames) == 0
}

// SubscriberCount returns the number of active subscriptions a message
// published on tag would reach: its exact subscribers plus any wildcard
// subscribers whose filter matches it.
func (b *Bus) SubscriberCount(tag string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.subs[tag])
	for _, sub := range b.wsubs {
		if MatchSubject(sub.tag, tag) {
			n++
		}
	}
	return n
}

// String summarizes the bus.
func (b *Bus) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return fmt.Sprintf("streams.Bus{tags: %d}", len(b.subs))
}
