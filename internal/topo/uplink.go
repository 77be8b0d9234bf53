package topo

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"darshanldms/internal/sim"
	"darshanldms/internal/streams"
)

// PumpConfig parameterizes the simulated consumer-acked hops of the
// aggregation tree. The zero value of every field selects a default.
type PumpConfig struct {
	Consumer  string        // durable consumer name (default "uplink")
	Batch     int           // messages per fetch round (default 32)
	PollEvery time.Duration // heartbeat/poll interval (default 5ms virtual)
	AckWait   time.Duration // consumer redelivery deadline (default 200ms virtual)
	// AckDelay is the gap between delivering a batch upstream and acking
	// it (default 1ms virtual). It models the send/ack window a real
	// process keeps open: a crash inside the gap loses the acks, and the
	// batch is redelivered — duplicates for the dedup layer, never loss.
	AckDelay time.Duration
}

func (c *PumpConfig) setDefaults() {
	if c.Consumer == "" {
		c.Consumer = "uplink"
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.PollEvery <= 0 {
		c.PollEvery = 5 * time.Millisecond
	}
	if c.AckWait <= 0 {
		c.AckWait = 200 * time.Millisecond
	}
	if c.AckDelay <= 0 {
		c.AckDelay = time.Millisecond
	}
}

// Uplink is one tree hop: a durable consumer on the child's own stream,
// pumped into whatever bus the tree currently routes the child to. The
// consumer (and so its ack floor) belongs to the child and survives any
// number of re-homes — pointing the pump at a new parent never touches
// the cursor, which is how re-homing preserves the floor by construction.
type Uplink struct {
	child string
	tree  *Tree
	cons  *streams.Consumer
	cfg   PumpConfig

	mu               sync.Mutex
	delivered        uint64
	acked            uint64
	ackLost          uint64 // batches' acks lost to a crash inside the ack gap
	lastFloor        uint64
	floorRegressions uint64
}

// UplinkState is a snapshot of one uplink's counters.
type UplinkState struct {
	Child            string
	Delivered        uint64
	Acked            uint64
	AckLost          uint64
	Floor            uint64
	FloorRegressions uint64
	Consumer         streams.ConsumerStats
}

// StartUplink claims the child's durable uplink consumer and spawns the
// pump as a simulation daemon. Every poll doubles as a heartbeat via
// Tree.Deliver; the pump pauses while the child itself is crashed.
func StartUplink(e *sim.Engine, t *Tree, child string, s *streams.DurableStream, cfg PumpConfig) (*Uplink, error) {
	if e == nil || t == nil || s == nil {
		return nil, errors.New("topo: uplink needs an engine, a tree and a stream")
	}
	cfg.setDefaults()
	cons, err := s.Consumer(streams.ConsumerConfig{
		Name:        cfg.Consumer,
		MaxInflight: 2 * cfg.Batch,
		AckWait:     cfg.AckWait,
	})
	if err != nil {
		return nil, err
	}
	u := &Uplink{child: child, tree: t, cons: cons, cfg: cfg}
	e.SpawnDaemon("uplink-"+child, u.run)
	return u, nil
}

// run is the pump loop. It executes in engine context: a fetch-deliver
// round is atomic with respect to fault events, and the ack gap
// (p.Sleep) is exactly where a crash can wedge in.
func (u *Uplink) run(p *sim.Proc) {
	for {
		p.Sleep(u.cfg.PollEvery)
		if !u.tree.Alive(u.child) {
			continue // our process is down
		}
		bus, ok := u.tree.Deliver(u.child)
		if !ok {
			continue // miss counted; failover handled by the tree
		}
		ds, err := u.cons.Fetch(u.cfg.Batch)
		if err != nil {
			return // consumer replaced or closed
		}
		if len(ds) == 0 {
			continue
		}
		for _, d := range ds {
			bus.Publish(d.Msg)
		}
		u.mu.Lock()
		u.delivered += uint64(len(ds))
		u.mu.Unlock()
		p.Sleep(u.cfg.AckDelay)
		if !u.tree.Alive(u.child) {
			// Crashed inside the send/ack gap: the parent has the batch, we
			// cannot ack it. Redelivery will duplicate it downstream.
			u.mu.Lock()
			u.ackLost += uint64(len(ds))
			u.mu.Unlock()
			continue
		}
		for _, d := range ds {
			if err := u.cons.Ack(d.Seq); err != nil {
				if errors.Is(err, streams.ErrConsumerClosed) {
					return
				}
				// Ack of an already-settled redelivery: fine, idempotent.
			}
		}
		floor := u.cons.AckFloor()
		u.mu.Lock()
		u.acked += uint64(len(ds))
		if floor < u.lastFloor {
			u.floorRegressions++
		}
		u.lastFloor = floor
		u.mu.Unlock()
	}
}

// Redeliver force-expires the consumer's inflight window — the child's
// restart hook, so a batch whose acks died with the process moves again
// immediately instead of waiting out the ack deadline.
func (u *Uplink) Redeliver() int { return u.cons.Redeliver() }

// State snapshots the uplink.
func (u *Uplink) State() UplinkState {
	u.mu.Lock()
	st := UplinkState{
		Child:            u.child,
		Delivered:        u.delivered,
		Acked:            u.acked,
		AckLost:          u.ackLost,
		Floor:            u.lastFloor,
		FloorRegressions: u.floorRegressions,
	}
	u.mu.Unlock()
	st.Consumer = u.cons.Stats()
	return st
}

// MessageStore is the store side of a pump — satisfied by
// ldms.StorePlugin implementations (DedupStore chains over DSOSStore).
type MessageStore interface {
	Store(m streams.Message) error
}

// StorePump is the tree's final hop: a durable consumer on the store
// head's stream feeding the store chain, acking only what the chain
// stored and naking the rest for redelivery — the consumer-acked ingest
// a real dsosd runs, so a down shard is backpressure, never loss.
type StorePump struct {
	cons  *streams.Consumer
	store MessageStore

	mu     sync.Mutex
	stored uint64
	naks   uint64
}

// StartStorePump claims the consumer and spawns the ingest loop.
func StartStorePump(e *sim.Engine, s *streams.DurableStream, store MessageStore, cfg PumpConfig) (*StorePump, error) {
	if e == nil || s == nil || store == nil {
		return nil, errors.New("topo: store pump needs an engine, a stream and a store")
	}
	cfg.setDefaults()
	if cfg.Consumer == "uplink" {
		cfg.Consumer = "store"
	}
	cons, err := s.Consumer(streams.ConsumerConfig{
		Name:        cfg.Consumer,
		MaxInflight: 2 * cfg.Batch,
		AckWait:     cfg.AckWait,
	})
	if err != nil {
		return nil, err
	}
	sp := &StorePump{cons: cons, store: store}
	e.SpawnDaemon("store-pump", func(p *sim.Proc) { sp.run(p, cfg) })
	return sp, nil
}

func (sp *StorePump) run(p *sim.Proc, cfg PumpConfig) {
	for {
		p.Sleep(cfg.PollEvery)
		ds, err := sp.cons.Fetch(cfg.Batch)
		if err != nil {
			return
		}
		for _, d := range ds {
			if serr := sp.store.Store(d.Msg); serr != nil {
				if nerr := sp.cons.Nak(d.Seq); nerr != nil {
					if errors.Is(nerr, streams.ErrConsumerClosed) {
						return
					}
					continue
				}
				sp.mu.Lock()
				sp.naks++
				sp.mu.Unlock()
				continue
			}
			if aerr := sp.cons.Ack(d.Seq); aerr != nil {
				if errors.Is(aerr, streams.ErrConsumerClosed) {
					return
				}
				continue
			}
			sp.mu.Lock()
			sp.stored++
			sp.mu.Unlock()
		}
	}
}

// Stats returns (stored, naks, consumer snapshot).
func (sp *StorePump) Stats() (uint64, uint64, streams.ConsumerStats) {
	sp.mu.Lock()
	stored, naks := sp.stored, sp.naks
	sp.mu.Unlock()
	return stored, naks, sp.cons.Stats()
}

// String identifies the pump in logs.
func (sp *StorePump) String() string {
	stored, naks, _ := sp.Stats()
	return fmt.Sprintf("store-pump(stored=%d naks=%d)", stored, naks)
}
