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
	"time"
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
// downstream stores can deduplicate at-least-once replays (a reconnecting
// uplink re-sending its spool) without inspecting the payload. They
// ride alongside the payload — the JSON bytes the paper specifies are
// unchanged — and are zero for messages published without stamping.
//
// A message carries its payload one of two ways: Data holds literal bytes
// (the legacy eager form, still used by PublishJSON/PublishString and raw
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

// Detacher is a payload carrier whose backing memory may be pooled (a
// slab-owned *event.Record decoded from a batch frame). DetachCarrier
// returns a self-owned equivalent that is safe to retain indefinitely.
// The bus stays decoupled from the event package: it only knows the
// contract, not the implementation.
type Detacher interface {
	DetachCarrier() Carrier
}

// Detach returns a message safe to retain past the synchronous delivery
// hand-off. Messages whose carrier owns its memory (heap records, plain
// Data bytes) pass through untouched; a pooled carrier is replaced by a
// detached copy. Every queueing boundary — the uplink spool, any
// handler that stores the message — must pass its message through here;
// synchronous consumers need not.
func Detach(m Message) Message {
	if d, ok := m.Record.(Detacher); ok {
		m.Record = d.DetachCarrier()
	}
	return m
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

// Stamper is a payload carrier that records hop crossings (it is
// implemented by *event.Record; the bus stays decoupled from the event
// package). An instrumented bus stamps every stamping carrier it
// publishes with its hop name and clock reading.
type Stamper interface {
	Stamp(hop string, at time.Duration)
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
	// hop/clock are set by Instrument; when set, Publish stamps typed
	// records crossing this bus (the stamp itself is gated on the
	// process-wide obs tracing switch, so this stays free when off).
	hop   string
	clock func() time.Duration
}

// Instrument names this bus as a trace hop and supplies the clock used
// to timestamp crossings. Sim-zone buses must pass virtual time (the
// engine clock); real daemons pass a wall clock. Instrumenting changes
// no delivery behavior.
func (b *Bus) Instrument(hop string, clock func() time.Duration) {
	b.mu.Lock()
	b.hop = hop
	b.clock = clock
	b.mu.Unlock()
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

// publishRun publishes a non-empty run of messages sharing one tag.
func (b *Bus) publishRun(run []Message) int {
	tag := run[0].Tag
	b.mu.Lock()
	st, ok := b.stats[tag]
	if !ok {
		st = &Stats{}
		b.stats[tag] = st
	}
	st.Published += uint64(len(run))
	hop, clock := b.hop, b.clock
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
	b.mu.Unlock()
	if hop != "" {
		now := clock()
		for i := range run {
			if s, ok := run[i].Record.(Stamper); ok {
				s.Stamp(hop, now)
			}
		}
	}
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

// PublishString publishes a string payload on tag.
func (b *Bus) PublishString(tag, data string) int {
	return b.Publish(Message{Tag: tag, Type: TypeString, Data: []byte(data)})
}

// NoteDrops folds n externally observed drops for tag into the bus
// counters. Transports that buffer messages after Publish succeeded (e.g.
// the TCP uplink's spool) use this so that a tag's Stats.Dropped stays
// the single place to look for lost messages, wherever the loss happened.
func (b *Bus) NoteDrops(tag string, n uint64) {
	if n == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.stats[tag]
	if !ok {
		st = &Stats{}
		b.stats[tag] = st
	}
	st.Dropped += n
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

// StreamNames returns, sorted, the names of every bound stream.
func (b *Bus) StreamNames() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, len(b.streamNames))
	copy(out, b.streamNames)
	return out
}

// AppendStream appends msg directly to the named bound stream, bypassing
// handler fan-out, and returns the assigned sequence. Unlike Publish this
// surfaces the persistence outcome to the caller: an error means the
// message is NOT durable and the caller still owns its fate, so the
// return must not be discarded (dlc-lint's puberr check enforces this).
func (b *Bus) AppendStream(name string, msg Message) (uint64, error) {
	b.mu.Lock()
	s := b.streams[name]
	b.mu.Unlock()
	if s == nil {
		return 0, fmt.Errorf("streams: no stream %q bound", name)
	}
	return s.Append(msg)
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
