// Package ldms reimplements the Lightweight Distributed Metric Service
// pieces the paper's framework uses: LDMSD daemons hosting sampler plugins
// and a streams bus, multi-hop aggregation (compute-node daemons -> head
// node aggregator -> remote-cluster aggregator), store plugins (CSV, DSOS,
// counting), and a TCP transport for running real daemons outside the
// simulation (cmd/ldmsd).
package ldms

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/streams"
)

// MetricSet is one sampled set: a schema of named numeric metrics from one
// producer at one instant (LDMS's synchronous data path, as opposed to the
// event-based streams path).
type MetricSet struct {
	Schema    string
	Producer  string
	Instance  string
	Timestamp time.Duration
	Metrics   map[string]float64
}

// Sampler is a sampler plugin: it produces a metric set on demand.
type Sampler interface {
	Name() string
	Sample(producer string, now time.Duration) MetricSet
}

// Daemon is an LDMSD: it owns a streams bus, hosts sampler plugins, and
// retains the latest metric sets (which aggregators pull).
type Daemon struct {
	Name     string
	Producer string // node name used as ProducerName
	bus      *streams.Bus
	samplers []Sampler
	sets     map[string]MetricSet        // latest set per schema+instance
	recv     atomic.Pointer[StoreHandle] // the receive store (StoreReceived), or nil
}

// NewDaemon creates a daemon for the given producer (node) name.
func NewDaemon(name, producer string) *Daemon {
	return &Daemon{
		Name:     name,
		Producer: producer,
		bus:      streams.NewBus(),
		sets:     map[string]MetricSet{},
	}
}

// Bus returns the daemon's streams bus (publishers and subscribers attach
// here).
func (d *Daemon) Bus() *streams.Bus { return d.bus }

// AddSampler installs a sampler plugin.
func (d *Daemon) AddSampler(s Sampler) { d.samplers = append(d.samplers, s) }

// SampleOnce runs every sampler and retains the results.
func (d *Daemon) SampleOnce(now time.Duration) []MetricSet {
	out := make([]MetricSet, 0, len(d.samplers))
	for _, s := range d.samplers {
		set := s.Sample(d.Producer, now)
		key := set.Schema + "/" + set.Instance
		d.sets[key] = set
		out = append(out, set)
	}
	return out
}

// StartSampling runs the daemon's samplers at the given interval as a
// simulation daemon process.
func (d *Daemon) StartSampling(e *sim.Engine, interval time.Duration) {
	e.SpawnDaemon("ldmsd-sampler:"+d.Name, func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			d.SampleOnce(p.Now())
		}
	})
}

// Sets returns the latest metric sets, sorted by schema/instance.
func (d *Daemon) Sets() []MetricSet {
	keys := make([]string, 0, len(d.sets))
	for k := range d.sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]MetricSet, 0, len(keys))
	for _, k := range keys {
		out = append(out, d.sets[k])
	}
	return out
}

// MeminfoSampler is a synthetic meminfo sampler: the kind of system-state
// data LDMS collects alongside the Darshan stream so users can correlate
// I/O behaviour with node conditions.
type MeminfoSampler struct {
	TotalKB float64
	R       *rng.Stream
	usedKB  float64
}

// NewMeminfoSampler creates a sampler for a node with the given memory.
func NewMeminfoSampler(totalKB float64, r *rng.Stream) *MeminfoSampler {
	return &MeminfoSampler{TotalKB: totalKB, R: r, usedKB: totalKB * 0.2}
}

// Name implements Sampler.
func (m *MeminfoSampler) Name() string { return "meminfo" }

// Sample implements Sampler: used memory follows a bounded random walk.
func (m *MeminfoSampler) Sample(producer string, now time.Duration) MetricSet {
	m.usedKB += m.R.Normal(0, m.TotalKB*0.01)
	if m.usedKB < m.TotalKB*0.05 {
		m.usedKB = m.TotalKB * 0.05
	}
	if m.usedKB > m.TotalKB*0.95 {
		m.usedKB = m.TotalKB * 0.95
	}
	return MetricSet{
		Schema:    "meminfo",
		Producer:  producer,
		Instance:  producer + "/meminfo",
		Timestamp: now,
		Metrics: map[string]float64{
			"MemTotal": m.TotalKB,
			"MemFree":  m.TotalKB - m.usedKB,
			"Cached":   m.usedKB * 0.4,
		},
	}
}

// VMStatSampler is a synthetic vmstat sampler (context switches, page
// faults).
type VMStatSampler struct {
	R       *rng.Stream
	ctxt    float64
	pgfault float64
}

// NewVMStatSampler creates the sampler.
func NewVMStatSampler(r *rng.Stream) *VMStatSampler { return &VMStatSampler{R: r} }

// Name implements Sampler.
func (v *VMStatSampler) Name() string { return "vmstat" }

// Sample implements Sampler: monotone counters with random increments.
func (v *VMStatSampler) Sample(producer string, now time.Duration) MetricSet {
	v.ctxt += v.R.Exponential(5000)
	v.pgfault += v.R.Exponential(800)
	return MetricSet{
		Schema:    "vmstat",
		Producer:  producer,
		Instance:  producer + "/vmstat",
		Timestamp: now,
		Metrics: map[string]float64{
			"ctxt":    v.ctxt,
			"pgfault": v.pgfault,
		},
	}
}

// Aggregator receives relayed streams; it may itself be relayed to a
// higher-level aggregator (the paper's Voltrino head node -> Shirley
// analysis cluster chain).
type Aggregator struct {
	*Daemon
}

// NewAggregator creates an aggregator daemon.
func NewAggregator(name, producer string) *Aggregator {
	return &Aggregator{Daemon: NewDaemon(name, producer)}
}

// Relay forwards stream messages with a given tag from one daemon's bus to
// another's — one hop of the LDMS transport. When e is non-nil the delivery
// is delayed by latency in virtual time (the UGNI/RDMA hop); otherwise it
// is immediate (in-process transport).
func Relay(e *sim.Engine, from, to *Daemon, tag string, latency time.Duration) *streams.Subscription {
	return from.bus.Subscribe(tag, func(m streams.Message) {
		if e != nil && latency > 0 {
			e.After(latency, func() { to.bus.Publish(m) })
			return
		}
		to.bus.Publish(m)
	})
}

// RelayStats counts a rate-limited relay's activity.
type RelayStats struct {
	Forwarded uint64
	Dropped   uint64
}

// RateLimitedRelay forwards like Relay but through a token bucket of
// maxRate messages/second (burst = one second's worth). When the
// application's event rate exceeds what the hop can move, excess messages
// are dropped — LDMS Streams is best-effort precisely so that a slow hop
// sheds load instead of buffering unbounded memory on the compute node
// (the concern Section IV-B raises about pull-based designs).
// Requires a simulation engine for its clock. A non-positive maxRate is a
// configuration error and is reported rather than panicking — the relay is
// library code running inside long-lived daemons.
func RateLimitedRelay(e *sim.Engine, from, to *Daemon, tag string, latency time.Duration, maxRate float64) (*streams.Subscription, *RelayStats, error) {
	if maxRate <= 0 {
		return nil, nil, fmt.Errorf("ldms: rate limit must be positive, got %v", maxRate)
	}
	st := &RelayStats{}
	tokens := maxRate // start with a full bucket
	last := e.Now()
	sub := from.bus.Subscribe(tag, func(m streams.Message) {
		now := e.Now()
		// Refill proportional to elapsed virtual time, capped at the burst.
		tokens = minF(maxRate, tokens+(now-last).Seconds()*maxRate)
		last = now
		if tokens < 1 {
			st.Dropped++
			return
		}
		tokens--
		st.Forwarded++
		if latency > 0 {
			e.After(latency, func() { to.bus.Publish(m) })
			return
		}
		to.bus.Publish(m)
	})
	return sub, st, nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// String describes the daemon.
func (d *Daemon) String() string {
	return fmt.Sprintf("ldmsd(%s on %s)", d.Name, d.Producer)
}
