// Package faults is a deterministic fault-injection framework for the
// monitoring pipeline. Faults are scheduled in *virtual* time on the
// simulation engine (internal/sim) so a campaign with a fixed seed replays
// bit-for-bit: daemon crash/restart, link partitions, latency spikes and
// slow-subscriber stalls against the simulated multi-hop topology, plus a
// TCP fault proxy (tcpproxy.go) for injecting connection kills and
// partitions between real daemons.
//
// The package answers the paper's Section IV-B worry — best-effort streams
// with "no reconnect or resend for delivery" lose data whenever anything
// on the path hiccups — by making those hiccups reproducible on demand, so
// the resilience layer (ldms.Uplink, ldms.RetryStore) can
// be exercised and measured instead of trusted.
package faults

import (
	"fmt"
	"sort"
	"time"

	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault kinds.
const (
	// DaemonCrash takes a registered daemon down (its registered crash
	// hook runs, typically cutting every link touching it) and restarts
	// it after Duration.
	DaemonCrash Kind = iota
	// LinkPartition cuts a link: messages crossing it are dropped until
	// the partition heals after Duration.
	LinkPartition
	// LatencySpike adds Extra to a link's delivery latency for Duration.
	LatencySpike
	// SlowSubscriber stalls a link's consumer: messages queue in the
	// link's bounded stall buffer and are released (recovered) when the
	// stall ends; overflow beyond the buffer is dropped.
	SlowSubscriber
	// StoreFault activates a registered toggle for Duration — used for
	// store/ingest outages (e.g. dsos.Daemon.SetFault) and any other
	// on/off fault a campaign wires up.
	StoreFault
	// ReplayOutage takes a link down like LinkPartition, but models an
	// at-least-once transport (ldms.Uplink): messages spool
	// during the outage and the heal re-delivers them plus the pre-outage
	// tail — duplicates for a downstream DedupStore to absorb. The link
	// needs SetReplayTail for the duplicate part.
	ReplayOutage
)

func (k Kind) String() string {
	switch k {
	case DaemonCrash:
		return "daemon-crash"
	case LinkPartition:
		return "link-partition"
	case LatencySpike:
		return "latency-spike"
	case SlowSubscriber:
		return "slow-subscriber"
	case StoreFault:
		return "store-fault"
	case ReplayOutage:
		return "replay-outage"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault against a named target.
type Event struct {
	Kind     Kind
	Target   string        // registered link, daemon or toggle name
	At       time.Duration // virtual time the fault starts
	Duration time.Duration // how long it lasts (0 = until end of run)
	Extra    time.Duration // LatencySpike: added per-message latency
}

// Profile is a named fault schedule — one scenario of a campaign.
type Profile struct {
	Name   string
	Events []Event
}

// Record is one entry of the controller's fault log.
type Record struct {
	At  time.Duration
	Msg string
}

func (r Record) String() string { return fmt.Sprintf("[%8.3fs] %s", r.At.Seconds(), r.Msg) }

// Controller binds fault events to registered targets and schedules them
// on the engine. All state changes happen in engine context, so they are
// deterministic with respect to the simulated workload.
type Controller struct {
	e       *sim.Engine
	links   map[string]*Link
	crashes map[string]crashHooks
	toggles map[string]func(active bool)
	log     []Record
}

type crashHooks struct {
	crash   func()
	restart func()
}

// NewController creates a controller for the engine.
func NewController(e *sim.Engine) *Controller {
	return &Controller{
		e:       e,
		links:   map[string]*Link{},
		crashes: map[string]crashHooks{},
		toggles: map[string]func(active bool){},
	}
}

// RegisterLink makes a link addressable by profiles under name.
func (c *Controller) RegisterLink(name string, l *Link) {
	c.links[name] = l
}

// RegisterCrash makes a daemon addressable: crash runs when a DaemonCrash
// event starts, restart when it ends.
func (c *Controller) RegisterCrash(name string, crash, restart func()) {
	c.crashes[name] = crashHooks{crash: crash, restart: restart}
}

// RegisterToggle makes an on/off fault addressable for StoreFault events:
// set(true) at the event start, set(false) at its end.
func (c *Controller) RegisterToggle(name string, set func(active bool)) {
	c.toggles[name] = set
}

// note appends to the fault log at the current virtual time.
func (c *Controller) note(format string, args ...any) {
	c.log = append(c.log, Record{At: c.e.Now(), Msg: fmt.Sprintf(format, args...)})
}

// Log returns the fault log in schedule order.
func (c *Controller) Log() []Record { return c.log }

// Apply validates the profile against the registered targets and schedules
// every event on the engine. It must be called before the engine runs past
// the earliest event time.
func (c *Controller) Apply(p Profile) error {
	for i, ev := range p.Events {
		ev := ev
		switch ev.Kind {
		case LinkPartition, LatencySpike, SlowSubscriber, ReplayOutage:
			l, ok := c.links[ev.Target]
			if !ok {
				return fmt.Errorf("faults: profile %q event %d: unknown link %q", p.Name, i, ev.Target)
			}
			c.scheduleLink(ev, l)
		case DaemonCrash:
			h, ok := c.crashes[ev.Target]
			if !ok {
				return fmt.Errorf("faults: profile %q event %d: unknown daemon %q", p.Name, i, ev.Target)
			}
			c.e.At(ev.At, func() {
				c.note("crash daemon %s (down %v)", ev.Target, ev.Duration)
				h.crash()
			})
			if ev.Duration > 0 {
				c.e.At(ev.At+ev.Duration, func() {
					c.note("restart daemon %s", ev.Target)
					h.restart()
				})
			}
		case StoreFault:
			set, ok := c.toggles[ev.Target]
			if !ok {
				return fmt.Errorf("faults: profile %q event %d: unknown toggle %q", p.Name, i, ev.Target)
			}
			c.e.At(ev.At, func() {
				c.note("fault %s on", ev.Target)
				set(true)
			})
			if ev.Duration > 0 {
				c.e.At(ev.At+ev.Duration, func() {
					c.note("fault %s off", ev.Target)
					set(false)
				})
			}
		default:
			return fmt.Errorf("faults: profile %q event %d: unknown kind %v", p.Name, i, ev.Kind)
		}
	}
	return nil
}

func (c *Controller) scheduleLink(ev Event, l *Link) {
	switch ev.Kind {
	case LinkPartition:
		c.e.At(ev.At, func() {
			c.note("partition link %s (for %v)", ev.Target, ev.Duration)
			l.Cut()
		})
		if ev.Duration > 0 {
			c.e.At(ev.At+ev.Duration, func() {
				c.note("heal link %s", ev.Target)
				l.Restore()
			})
		}
	case LatencySpike:
		c.e.At(ev.At, func() {
			c.note("latency spike on %s: +%v (for %v)", ev.Target, ev.Extra, ev.Duration)
			l.SetExtraLatency(ev.Extra)
		})
		if ev.Duration > 0 {
			c.e.At(ev.At+ev.Duration, func() {
				c.note("latency restored on %s", ev.Target)
				l.SetExtraLatency(0)
			})
		}
	case SlowSubscriber:
		c.e.At(ev.At, func() {
			c.note("stall subscriber on %s (for %v)", ev.Target, ev.Duration)
			l.Stall()
		})
		if ev.Duration > 0 {
			c.e.At(ev.At+ev.Duration, func() {
				rec := l.Unstall()
				c.note("release subscriber on %s (%d recovered)", ev.Target, rec)
			})
		}
	case ReplayOutage:
		c.e.At(ev.At, func() {
			c.note("replay outage on %s (for %v)", ev.Target, ev.Duration)
			l.CutReplay()
		})
		if ev.Duration > 0 {
			c.e.At(ev.At+ev.Duration, func() {
				dup, rec := l.RestoreReplay()
				c.note("replay heal on %s (%d duplicated, %d recovered)", ev.Target, dup, rec)
			})
		}
	}
}

// RandomProfile draws n events deterministically from r over [0, horizon):
// a quick way to generate "as many scenarios as you can imagine" stress
// schedules. Targets are drawn uniformly from links (and daemons, when
// provided); kinds from the link-fault classes plus DaemonCrash when
// daemons are given. Events are returned sorted by start time.
func RandomProfile(r *rng.Stream, name string, horizon time.Duration, n int, links, daemons []string) Profile {
	p := Profile{Name: name}
	if n <= 0 || horizon <= 0 || (len(links) == 0 && len(daemons) == 0) {
		return p
	}
	for i := 0; i < n; i++ {
		at := time.Duration(r.Float64() * float64(horizon))
		dur := time.Duration(r.Uniform(0.02, 0.2) * float64(horizon))
		var ev Event
		if len(daemons) > 0 && (len(links) == 0 || r.Bool(0.25)) {
			ev = Event{Kind: DaemonCrash, Target: daemons[r.Intn(len(daemons))], At: at, Duration: dur}
		} else {
			kind := []Kind{LinkPartition, LatencySpike, SlowSubscriber}[r.Intn(3)]
			ev = Event{Kind: kind, Target: links[r.Intn(len(links))], At: at, Duration: dur}
			if kind == LatencySpike {
				ev.Extra = time.Duration(r.Uniform(1, 50)) * time.Millisecond
			}
		}
		p.Events = append(p.Events, ev)
	}
	sort.Slice(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}
