// Package connector implements the Darshan-LDMS Connector, the paper's
// contribution: it attaches to the Darshan runtime's event hook, formats
// every detected I/O event (with its absolute timestamp) into the Table I
// JSON message, and publishes it to the LDMS Streams bus of the rank's
// compute-node LDMSD — during the run, not post-run.
//
// The connector reproduces the paper's cost structure: formatting happens
// synchronously in the application's I/O path, so its per-message cost is
// charged to the rank. With the Sprintf encoder and an I/O-intensive
// application (HMMER) this multiplies the runtime (Table IIc); with
// formatting disabled it costs ~0.37%. The every-Nth-event sampling knob is
// the paper's future-work mitigation, implemented here.
package connector

import (
	"strconv"
	"sync/atomic"

	"darshanldms/internal/darshan"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/streams"
)

// DefaultTag is the single stream tag the connector publishes on
// (Section IV-C: "the Darshan-LDMS Connector currently uses a single
// unique LDMS Stream tag for this data source").
const DefaultTag = "darshanConnector"

// SubjectPrefix roots the hierarchical subject space used when
// Config.HierarchicalSubjects is on.
const SubjectPrefix = "darshan"

// Subject builds the hierarchical stream subject for one event:
// "darshan.<producer>.<module>". Wildcard consumers filter on this shape
// — "darshan.*.POSIX" for one module across nodes, "darshan.nid00040.>"
// for one node across modules.
func Subject(producer string, module darshan.Module) string {
	return SubjectPrefix + "." + producer + "." + string(module)
}

// Config parameterizes the connector.
type Config struct {
	// Tag is the LDMS Streams tag; empty selects DefaultTag.
	Tag string
	// Encoder formats messages. Nil selects the Sprintf encoder — the
	// paper's implementation, with its integer-to-string conversion cost.
	Encoder jsonmsg.Encoder
	// SampleEvery publishes only every Nth detected event (<=1 publishes
	// all). Skipped events are not formatted, so they cost (almost)
	// nothing — the paper's planned overhead mitigation.
	SampleEvery int
	// Modules restricts publication to the listed modules; nil forwards
	// every instrumented module.
	Modules []darshan.Module
	// Meta is the job metadata stamped into every message.
	Meta jsonmsg.JobMeta
	// ChargeOverhead controls whether the encoder's simulated per-message
	// CPU cost is charged to the rank. True reproduces the paper's
	// overhead numbers; false isolates pure event accounting.
	ChargeOverhead bool
	// HierarchicalSubjects publishes each message on the per-event subject
	// Subject(producer, module) — "darshan.<producer>.<module>" — instead
	// of the single flat tag, so wildcard subscriptions and durable-stream
	// subject filters can select by node or module. Off by default: the
	// flat tag is the paper's single-tag design and what every seeded
	// table and figure subscribes to.
	HierarchicalSubjects bool
}

// Stats counts connector activity.
type Stats struct {
	Detected  uint64 // events seen from the Darshan hook
	Published uint64 // messages published to streams
	Sampled   uint64 // events skipped by every-Nth sampling
	Filtered  uint64 // events skipped by the module filter
	Dropped   uint64 // publishes that found no subscriber (best effort)
	// Bytes counts payload bytes actually JSON-encoded. Messages now
	// travel as typed records that encode lazily at text boundaries, so
	// this counts real encodes, not publishes — on an all-typed pipeline
	// it stays 0, which is the point of the refactor.
	Bytes uint64
}

// Connector is an attached Darshan-LDMS connector.
type Connector struct {
	cfg      Config
	enc      jsonmsg.Encoder
	tag      string
	modules  map[darshan.Module]bool
	daemonOf func(producer string) *ldms.Daemon
	stats    Stats
	bytes    atomic.Uint64 // lazily encoded payload bytes (see Stats.Bytes)
	lossy    bool          // encoder output does not carry the fields (ablation)
	// senders hands out each producer's delivery identity for
	// downstream dedup (exactly-once ingest).
	senders map[string]*sender
	// encodeCost, when set (Instrument), records the per-event encoder
	// cost; nil records nothing.
	encodeCost *obs.Histogram
}

// sender is one producer's delivery identity: the envelope producer and
// the last sequence number handed out. The counter restarts at 1 in
// every connector, so the envelope producer names the node and the job
// (JobMeta.JobID) — two jobs on one node must not share identities, or
// dedup absorbs the second job as replays of the first. The row's
// producer_name stays the node.
type sender struct {
	producer string
	seq      uint64
}

// lossyEncoder marks encoders whose output deliberately discards the
// record's fields (jsonmsg.NoneEncoder, the paper's "without sprintf"
// ablation). Their messages must keep the legacy eager form: shipping
// the typed record instead would quietly un-lose the fields downstream
// and change what the ablation measures.
type lossyEncoder interface{ Lossy() bool }

// Attach registers the connector on a Darshan runtime. daemonOf routes a
// producer (node) name to that node's LDMSD — in the real deployment each
// rank publishes to the daemon on its own compute node.
func Attach(rt *darshan.Runtime, cfg Config, daemonOf func(producer string) *ldms.Daemon) *Connector {
	c := New(cfg, daemonOf)
	rt.AddListener(c.OnEvent)
	return c
}

// New builds a connector without attaching it (callers can register
// c.OnEvent themselves).
func New(cfg Config, daemonOf func(producer string) *ldms.Daemon) *Connector {
	if daemonOf == nil {
		panic("connector: nil daemon router")
	}
	c := &Connector{cfg: cfg, daemonOf: daemonOf, senders: map[string]*sender{}}
	c.enc = cfg.Encoder
	if c.enc == nil {
		c.enc = jsonmsg.SprintfEncoder{}
	}
	if l, ok := c.enc.(lossyEncoder); ok && l.Lossy() {
		c.lossy = true
	}
	c.tag = cfg.Tag
	if c.tag == "" {
		c.tag = DefaultTag
	}
	if cfg.Modules != nil {
		c.modules = map[darshan.Module]bool{}
		for _, m := range cfg.Modules {
			c.modules[m] = true
		}
	}
	return c
}

// Tag returns the stream tag in use.
func (c *Connector) Tag() string { return c.tag }

// Encoder returns the encoder in use.
func (c *Connector) Encoder() jsonmsg.Encoder { return c.enc }

// Stats returns a snapshot of the counters.
func (c *Connector) Stats() Stats {
	s := c.stats
	s.Bytes += c.bytes.Load()
	return s
}

// OnEvent is the darshan.Listener: it formats and publishes one event.
func (c *Connector) OnEvent(ctx *darshan.Ctx, ev *darshan.Event) {
	c.stats.Detected++
	if c.modules != nil && !c.modules[ev.Module] {
		c.stats.Filtered++
		return
	}
	if n := c.cfg.SampleEvery; n > 1 && c.stats.Detected%uint64(n) != 0 {
		c.stats.Sampled++
		return
	}
	msg := jsonmsg.FromEvent(ev, c.cfg.Meta)
	snd := c.senders[ev.Producer]
	if snd == nil {
		snd = &sender{producer: ev.Producer + "/" + strconv.FormatInt(c.cfg.Meta.JobID, 10)}
		c.senders[ev.Producer] = snd
	}
	snd.seq++
	msg.Seq = snd.seq
	// The encoder's cost is charged in virtual time here whether or not
	// the real encode ever happens: the rank pays for formatting in the
	// paper's cost model, and keeping the charge at the hook is what
	// makes lazy encoding invisible to every seeded table and figure.
	if c.cfg.ChargeOverhead {
		ctx.Charge(c.enc.SimCost())
	}
	// SimCost is a pure per-encoder constant, so observing it cannot
	// perturb the seeded run even when overhead is not being charged.
	c.encodeCost.Observe(uint64(c.enc.SimCost()))
	d := c.daemonOf(ev.Producer)
	if d == nil {
		c.stats.Dropped++
		return
	}
	c.stats.Published++
	// The (producer, seq) identity rides out-of-band on the stream message
	// (the encoders keep the Table I payload bytes unchanged).
	tag := c.tag
	if c.cfg.HierarchicalSubjects {
		tag = Subject(ev.Producer, ev.Module)
	}
	m := streams.Message{Tag: tag, Type: streams.TypeJSON, Producer: snd.producer, Seq: msg.Seq}
	if c.lossy {
		// Ablation encoders discard the fields on purpose; keep their
		// placeholder payload eager so downstream sees exactly what the
		// paper's "without sprintf" configuration shipped.
		m.Data = c.enc.Encode(&msg)
		c.bytes.Add(uint64(len(m.Data)))
	} else {
		m.Record = event.NewRecord(&msg, c.enc).CountEncodes(&c.bytes)
	}
	if d.Bus().Publish(m) == 0 {
		c.stats.Dropped++
	}
}
