package harness

import (
	"fmt"
	"strings"
	"time"

	"darshanldms/internal/faults"
	"darshanldms/internal/ldms"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// The stream soak is the durable-stream layer's acceptance harness. It
// runs a publisher -> fault-injectable link -> aggregator pipeline whose
// aggregator stages every message through a DurableStream with a
// consumer-acked ingest loop, reruns it under many randomized (seeded)
// schedules of consumer crashes, stream (process) crashes, link outages,
// flaky-store windows and lag windows past retention, and audits four
// Jepsen-style invariants after every run:
//
//  1. No acked message lost — every identity the consumer acked is
//     present in the final store.
//  2. No effective duplicate — the DedupStore keeps each identity in the
//     store at most once, despite redelivery and link-replay overlap.
//  3. Cursors are monotone — the consumer's ack floor never regresses,
//     including across consumer crashes and stream reopens.
//  4. Retention drops are exactly accounted — Appended == Msgs + Dropped,
//     Dropped == FirstSeq-1, and the per-reason counts sum to the total,
//     at the end of every schedule.
//
// Each schedule then runs a second time against the legacy best-effort
// bus (no stream, no acks, no replay): the same faults demonstrably lose
// data there, which is the before/after the durable layer exists for.

// StreamSoakConfig parameterizes a stream soak.
type StreamSoakConfig struct {
	Seed              uint64
	Schedules         int           // randomized fault schedules (default 20)
	EventsPerSchedule int           // fault draws per schedule (default 5)
	Messages          int           // messages published per run (default 1500)
	Producers         int           // distinct producer nodes (default 4)
	RetainMsgs        int           // stream retention MaxMsgs (default 160)
	MaxInflight       int           // consumer flow-control window (default 32)
	AckWait           time.Duration // redelivery deadline, virtual (default 25ms)
	FlakyProb         float64       // store failure probability in flaky windows (default 0.3)
}

// DefaultStreamSoakConfig is the full-size soak: 20 schedules.
func DefaultStreamSoakConfig(seed uint64) StreamSoakConfig {
	return StreamSoakConfig{Seed: seed, Schedules: 20}
}

// StreamRunResult reports one schedule: the durable run, its invariant
// audit, and the legacy best-effort run of the same schedule.
type StreamRunResult struct {
	Schedule  string
	Published uint64 // matching-subject messages published at the source
	Noise     uint64 // non-matching subjects published (stream filters them)

	Appended       uint64 // messages the durable stream assigned sequences
	RetentionDrops uint64 // messages dropped by retention (lag windows)
	Acked          uint64 // identities the consumer acked
	Redelivered    uint64 // deadline/nak redeliveries
	Naks           uint64
	Missed         uint64 // sequences gone (retention) before delivery
	Deduped        uint64 // replayed deliveries suppressed by the dedup layer
	Stored         uint64 // identities in the final store
	LinkDropped    uint64
	LinkDuplicated uint64 // link replay-tail re-deliveries (dedup fodder)
	LinkRecovered  uint64
	FinalFloor     uint64
	FinalLag       uint64

	ConsumerCrashes int
	StreamReopens   int
	LinkOutages     int
	Pauses          int
	FlakyWindows    int

	LegacyStored uint64 // same schedule, plain best-effort bus
	LegacyLost   uint64 // published - stored on the legacy run

	Violations []string
}

// StreamSoakResult is a full soak.
type StreamSoakResult struct {
	Label      string
	Config     StreamSoakConfig
	Runs       []StreamRunResult
	Violations int    // total invariant violations across all durable runs
	LegacyLost uint64 // total messages the legacy bus lost across schedules
}

const (
	soakStreamName = "soak"
	soakFilter     = "darshan.*.POSIX"
	soakLinkTag    = "darshan.>"
	soakPubEvery   = 500 * time.Microsecond
	soakPollEvery  = time.Millisecond
	soakFetchBatch = 16
	soakLinkTail   = 64 // link replay tail: duplicates for the dedup layer
)

// Stream-soak fault kinds. Link faults reconnect through faults.Link;
// consumer/stream crashes exercise the durable cursor resume paths.
const (
	evStreamLinkOutage = iota // at-least-once transport outage (CutReplay)
	evStreamLinkCut           // hard partition: pre-stream loss
	evStreamConsumerCrash
	evStreamCrash // process crash: stream reopened from its segment
	evStreamConsumerPause
	evStreamFlaky
	evStreamKinds
)

type streamSoakEvent struct {
	kind int
	at   time.Duration
	dur  time.Duration
}

// drawStreamSchedule draws one randomized schedule over the first 80% of
// the horizon. Windows are 5-15% of the horizon, long enough for lag
// windows to run past RetainMsgs of backlog.
func drawStreamSchedule(r *rng.Stream, horizon time.Duration, n int) []streamSoakEvent {
	h := float64(horizon)
	evs := make([]streamSoakEvent, 0, n)
	for i := 0; i < n; i++ {
		evs = append(evs, streamSoakEvent{
			kind: r.Intn(evStreamKinds),
			at:   time.Duration(r.Float64() * 0.8 * h),
			dur:  time.Duration(r.Uniform(0.05, 0.15) * h),
		})
	}
	return evs
}

// idStore is the terminal store of the soak chain: it records how many
// times each (producer, seq) identity reached durable storage, and counts
// any message whose subject should have been filtered out upstream.
type idStore struct {
	ids    map[string]int
	leaked uint64
}

func newIDStore() *idStore { return &idStore{ids: map[string]int{}} }

// Name implements ldms.StorePlugin.
func (s *idStore) Name() string { return "soak-ids" }

// Store implements ldms.StorePlugin.
func (s *idStore) Store(m streams.Message) error {
	if !strings.HasSuffix(m.Tag, ".POSIX") {
		s.leaked++
	}
	s.ids[soakIdentity(m)]++
	return nil
}

func soakIdentity(m streams.Message) string {
	return fmt.Sprintf("%s/%d", m.Producer, m.Seq)
}

// gateStore models the legacy best-effort subscriber: while down (the
// window a real subscriber would spend crashed or detached) every
// delivery is silently gone — there is no spool and no cursor to resume.
type gateStore struct {
	inner ldms.StorePlugin
	down  bool
	lost  uint64
}

// Name implements ldms.StorePlugin.
func (g *gateStore) Name() string { return "gate(" + g.inner.Name() + ")" }

// Store implements ldms.StorePlugin.
func (g *gateStore) Store(m streams.Message) error {
	if g.down {
		g.lost++
		return nil
	}
	return g.inner.Store(m)
}

// soakPublisher publishes cfg.Messages messages on hierarchical subjects
// from round-robin producers, stamping per-producer sequence identities.
// Every fifth message goes to a non-matching subject (STDIO) to prove the
// stream's subject filter: it must never reach the store.
func soakPublisher(p *sim.Proc, cfg StreamSoakConfig, bus *streams.Bus, res *StreamRunResult) {
	seqs := make([]uint64, cfg.Producers)
	for i := 0; i < cfg.Messages; i++ {
		prod := i % cfg.Producers
		producer := fmt.Sprintf("nid%05d", 40+prod)
		module := "POSIX"
		if i%5 == 4 {
			module = "STDIO"
		}
		seqs[prod]++
		bus.Publish(streams.Message{
			Tag:      "darshan." + producer + "." + module,
			Type:     streams.TypeJSON,
			Data:     []byte(fmt.Sprintf(`{"mod":%q,"n":%d}`, module, i)),
			Producer: producer,
			Seq:      seqs[prod],
		})
		if module == "POSIX" {
			res.Published++
		} else {
			res.Noise++
		}
		p.Sleep(soakPubEvery)
	}
}

// soakState is the durable pipeline's mutable topology: the fault
// closures rewire it (crash consumers, reopen the stream) and the poll
// loop reads it. Everything runs in engine context, so no lock.
type soakState struct {
	e      *sim.Engine
	cfg    StreamSoakConfig
	wal    sos.WALStore
	aggBus *streams.Bus
	stream *streams.DurableStream
	cons   *streams.Consumer
	dedup  *ldms.DedupStore

	paused     bool
	streamDown bool
	stopped    bool
	lastFloor  uint64
	ackedIDs   map[string]int
	acc        streams.ConsumerStats // counters harvested from dead consumer instances
	res        *StreamRunResult
}

func (st *soakState) clock() time.Duration { return st.e.Now() }

func (st *soakState) openStream() error {
	s, err := streams.OpenStream(streams.StreamConfig{
		Name:      soakStreamName,
		Subjects:  []string{soakFilter},
		Retention: streams.RetentionPolicy{MaxMsgs: st.cfg.RetainMsgs},
		Clock:     st.clock,
	}, st.wal)
	if err != nil {
		return err
	}
	st.stream = s
	return st.aggBus.BindStream(s)
}

func (st *soakState) claimConsumer() error {
	c, err := st.stream.Consumer(streams.ConsumerConfig{
		Name:        "ingest",
		MaxInflight: st.cfg.MaxInflight,
		AckWait:     st.cfg.AckWait,
	})
	if err != nil {
		return err
	}
	st.cons = c
	return nil
}

// harvest folds a dying consumer instance's counters into the run
// accumulator (instances reset their counters; the run must not).
func (st *soakState) harvest() {
	if st.cons == nil {
		return
	}
	cs := st.cons.Stats()
	st.acc.Redelivered += cs.Redelivered
	st.acc.Naks += cs.Naks
	st.acc.Missed += cs.Missed
}

func (st *soakState) violate(format string, args ...any) {
	st.res.Violations = append(st.res.Violations, fmt.Sprintf(format, args...))
}

// poll is one tick of the consumer-acked ingest loop: fetch a batch, store
// each delivery, ack on success, nak for redelivery on failure, and check
// floor monotonicity. It reschedules itself until the run is stopped.
func (st *soakState) poll() {
	if st.stopped {
		return
	}
	defer st.e.After(soakPollEvery, st.poll)
	if st.paused || st.cons == nil {
		return
	}
	ds, err := st.cons.Fetch(soakFetchBatch)
	if err != nil {
		return // crashed/replaced between ticks; a fault closure reinstalls
	}
	for _, d := range ds {
		if serr := st.dedup.Store(d.Msg); serr != nil {
			_ = st.cons.Nak(d.Seq)
			continue
		}
		if aerr := st.cons.Ack(d.Seq); aerr != nil {
			return
		}
		st.ackedIDs[soakIdentity(d.Msg)]++
	}
	floor := st.cons.AckFloor()
	if floor < st.lastFloor {
		st.violate("cursor-regression: ack floor went %d -> %d", st.lastFloor, floor)
	}
	st.lastFloor = floor
}

// schedule installs one fault event's start/end closures. Overlapping
// windows are guarded by the topology state, so a schedule can draw
// conflicting windows and still be well-defined (and deterministic).
func (st *soakState) schedule(ev streamSoakEvent, link *faults.Link, flaky *faults.FlakyStore) {
	switch ev.kind {
	case evStreamLinkOutage:
		st.e.At(ev.at, func() {
			if link.Down() {
				return
			}
			st.res.LinkOutages++
			link.CutReplay()
			st.e.After(ev.dur, func() {
				if link.Down() {
					link.RestoreReplay()
				}
			})
		})
	case evStreamLinkCut:
		st.e.At(ev.at, func() {
			if link.Down() {
				return
			}
			st.res.LinkOutages++
			link.Cut()
			st.e.After(ev.dur, func() {
				if link.Down() {
					link.Restore()
				}
			})
		})
	case evStreamConsumerCrash:
		st.e.At(ev.at, func() {
			if st.cons == nil || st.streamDown {
				return
			}
			st.res.ConsumerCrashes++
			st.harvest()
			st.cons.Close()
			st.cons = nil
			st.e.After(ev.dur, func() {
				if st.streamDown || st.cons != nil {
					return // the stream-reopen path re-claims it
				}
				if err := st.claimConsumer(); err != nil {
					st.violate("consumer re-claim failed: %v", err)
				}
			})
		})
	case evStreamCrash:
		st.e.At(ev.at, func() {
			if st.streamDown {
				return
			}
			st.res.StreamReopens++
			st.streamDown = true
			st.harvest()
			if st.cons != nil {
				st.cons.Close()
				st.cons = nil
			}
			st.aggBus.UnbindStream(soakStreamName)
			cutHere := !link.Down()
			if cutHere {
				link.CutReplay() // the aggregator process died mid-connection
			}
			st.e.After(ev.dur, func() {
				st.streamDown = false
				if err := st.openStream(); err != nil {
					st.violate("stream reopen failed: %v", err)
					return
				}
				if err := st.claimConsumer(); err != nil {
					st.violate("consumer re-claim failed: %v", err)
				}
				if cutHere && link.Down() {
					// The publisher's transport replays its unacked tail
					// into the reopened stream: same identities, new
					// sequences, absorbed by the dedup layer.
					link.RestoreReplay()
				}
			})
		})
	case evStreamConsumerPause:
		st.e.At(ev.at, func() {
			if st.paused {
				return
			}
			st.res.Pauses++
			st.paused = true
			st.e.After(ev.dur, func() { st.paused = false })
		})
	case evStreamFlaky:
		st.e.At(ev.at, func() {
			st.res.FlakyWindows++
			flaky.SetActive(true)
			st.e.After(ev.dur, func() { flaky.SetActive(false) })
		})
	}
}

// runStreamSoak executes one schedule against the durable pipeline and
// audits the four invariants.
func runStreamSoak(cfg StreamSoakConfig, name string, evs []streamSoakEvent, root *rng.Stream) (*StreamRunResult, error) {
	e := sim.NewEngine()
	defer e.Close()
	res := &StreamRunResult{Schedule: name}

	pub := ldms.NewDaemon("soak-pub", "nid-soak")
	agg := ldms.NewDaemon("soak-agg", "head")
	link := faults.NewLink(e, pub, agg, soakLinkTag, 200*time.Microsecond)
	link.SetReplayTail(soakLinkTail)

	rec := newIDStore()
	flaky := faults.NewFlakyStore(rec, root.Derive("flaky"), cfg.FlakyProb)
	st := &soakState{
		e: e, cfg: cfg, wal: sos.NewMemWAL(), aggBus: agg.Bus(),
		dedup: ldms.NewDedupStore(flaky), ackedIDs: map[string]int{}, res: res,
	}
	if err := st.openStream(); err != nil {
		return nil, err
	}
	if err := st.claimConsumer(); err != nil {
		return nil, err
	}
	for _, ev := range evs {
		st.schedule(ev, link, flaky)
	}

	e.After(soakPollEvery, st.poll)
	e.Spawn("publisher", func(p *sim.Proc) { soakPublisher(p, cfg, pub.Bus(), res) })
	if err := e.Run(0); err != nil {
		return nil, err
	}
	// Catch-up: faults all end by 0.95 * horizon; give the consumer the
	// same span again to drain backlog, redeliveries and nak'd messages.
	horizon := e.Now()
	if err := e.Drain(2 * horizon); err != nil {
		return nil, err
	}
	st.stopped = true

	st.harvest()
	ss := st.stream.Stats()
	var cs streams.ConsumerStats
	if st.cons != nil {
		cs = st.cons.Stats()
	}
	res.Appended = ss.Appended
	res.RetentionDrops = ss.Dropped
	res.Acked = uint64(len(st.ackedIDs))
	res.Redelivered = st.acc.Redelivered + cs.Redelivered
	res.Naks = st.acc.Naks + cs.Naks
	res.Missed = st.acc.Missed + cs.Missed
	res.Deduped = st.dedup.Duplicates()
	res.Stored = uint64(len(rec.ids))
	ls := link.Stats()
	res.LinkDropped = ls.Dropped
	res.LinkDuplicated = ls.Duplicated
	res.LinkRecovered = ls.Recovered
	res.FinalFloor = cs.AckFloor
	res.FinalLag = cs.Lag

	// --- Invariant audit ---

	// 1. No acked message lost.
	lost := 0
	for id := range st.ackedIDs {
		if rec.ids[id] == 0 {
			lost++
		}
	}
	if lost > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("acked-but-lost: %d acked identities missing from the store", lost))
	}

	// 2. No effective duplicate.
	dups := 0
	for _, n := range rec.ids {
		if n > 1 {
			dups += n - 1
		}
	}
	if dups > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("duplicate-stored: %d extra copies despite the dedup layer", dups))
	}

	// 3. Monotone cursors are checked tick-by-tick in poll(); a regression
	// is already in res.Violations by now.

	// 4. Retention drops exactly accounted.
	if ss.Appended != uint64(ss.Msgs)+ss.Dropped {
		res.Violations = append(res.Violations,
			fmt.Sprintf("drop-accounting: appended %d != retained %d + dropped %d", ss.Appended, ss.Msgs, ss.Dropped))
	}
	if ss.Appended > 0 && ss.Dropped != ss.FirstSeq-1 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("drop-accounting: dropped %d != firstSeq-1 (%d)", ss.Dropped, ss.FirstSeq-1))
	}
	var reasons uint64
	for _, n := range ss.DroppedFor {
		reasons += n
	}
	if reasons != ss.Dropped {
		res.Violations = append(res.Violations,
			fmt.Sprintf("drop-accounting: per-reason drops sum to %d, total says %d", reasons, ss.Dropped))
	}

	// Catch-up: with every fault healed the consumer must fully drain.
	if st.cons == nil {
		res.Violations = append(res.Violations, "catch-up: no live consumer at the end of the run")
	} else if cs.Lag != 0 || cs.Inflight != 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("catch-up: consumer ended with lag %d, inflight %d", cs.Lag, cs.Inflight))
	}
	// The noise subjects must never have leaked past the subject filter.
	if rec.leaked > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("subject-leak: %d non-matching messages reached the store", rec.leaked))
	}
	return res, nil
}

// runLegacySoak executes the same schedule against the paper's
// best-effort bus: the store hangs directly off the aggregator bus, a
// crashed/paused consumer is simply absent, and the link has no replay.
// Returns how many identities made it to the store.
func runLegacySoak(cfg StreamSoakConfig, evs []streamSoakEvent, root *rng.Stream) (uint64, error) {
	e := sim.NewEngine()
	defer e.Close()

	pub := ldms.NewDaemon("legacy-pub", "nid-soak")
	agg := ldms.NewDaemon("legacy-agg", "head")
	link := faults.NewLink(e, pub, agg, soakLinkTag, 200*time.Microsecond)

	rec := newIDStore()
	flaky := faults.NewFlakyStore(rec, root.Derive("flaky"), cfg.FlakyProb)
	gate := &gateStore{inner: flaky}
	agg.AttachStore(soakFilter, gate)

	for _, ev := range evs {
		ev := ev
		switch ev.kind {
		case evStreamLinkOutage, evStreamLinkCut:
			e.At(ev.at, func() {
				if link.Down() {
					return
				}
				link.Cut()
				e.After(ev.dur, func() {
					if link.Down() {
						link.Restore()
					}
				})
			})
		case evStreamConsumerCrash, evStreamConsumerPause, evStreamCrash:
			e.At(ev.at, func() {
				if gate.down {
					return
				}
				gate.down = true
				if ev.kind == evStreamCrash && !link.Down() {
					link.Cut()
					e.After(ev.dur, func() {
						if link.Down() {
							link.Restore()
						}
					})
				}
				e.After(ev.dur, func() { gate.down = false })
			})
		case evStreamFlaky:
			e.At(ev.at, func() {
				flaky.SetActive(true)
				e.After(ev.dur, func() { flaky.SetActive(false) })
			})
		}
	}

	var res StreamRunResult
	e.Spawn("publisher", func(p *sim.Proc) { soakPublisher(p, cfg, pub.Bus(), &res) })
	if err := e.Run(0); err != nil {
		return 0, err
	}
	if err := e.Drain(2 * e.Now()); err != nil {
		return 0, err
	}
	return uint64(len(rec.ids)), nil
}

// StreamSoak runs every randomized schedule against the durable pipeline
// (auditing invariants) and against the legacy best-effort bus (counting
// losses). Everything is drawn from cfg.Seed, so a soak replays
// bit-for-bit.
func StreamSoak(cfg StreamSoakConfig) (*StreamSoakResult, error) {
	if cfg.Schedules <= 0 {
		cfg.Schedules = 20
	}
	if cfg.EventsPerSchedule <= 0 {
		cfg.EventsPerSchedule = 5
	}
	if cfg.Messages <= 0 {
		cfg.Messages = 1500
	}
	if cfg.Producers <= 0 {
		cfg.Producers = 4
	}
	if cfg.RetainMsgs <= 0 {
		cfg.RetainMsgs = 160
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 32
	}
	if cfg.AckWait <= 0 {
		cfg.AckWait = 25 * time.Millisecond
	}
	if cfg.FlakyProb <= 0 {
		cfg.FlakyProb = 0.3
	}

	horizon := time.Duration(cfg.Messages) * soakPubEvery
	out := &StreamSoakResult{
		Label: fmt.Sprintf("%d msgs, retain %d, window %d, ackwait %s",
			cfg.Messages, cfg.RetainMsgs, cfg.MaxInflight, cfg.AckWait),
		Config: cfg,
	}
	root := rng.New(cfg.Seed)
	for i := 0; i < cfg.Schedules; i++ {
		name := fmt.Sprintf("stream-%02d", i)
		evs := drawStreamSchedule(root.DeriveN("stream-schedule", i), horizon, cfg.EventsPerSchedule)
		res, err := runStreamSoak(cfg, name, evs, root.DeriveN("stream-run", i))
		if err != nil {
			return nil, err
		}
		legacyStored, err := runLegacySoak(cfg, evs, root.DeriveN("legacy-run", i))
		if err != nil {
			return nil, err
		}
		res.LegacyStored = legacyStored
		if res.Published > legacyStored {
			res.LegacyLost = res.Published - legacyStored
		}
		out.Runs = append(out.Runs, *res)
		out.Violations += len(res.Violations)
		out.LegacyLost += res.LegacyLost
	}
	return out, nil
}

// RenderStreamSoak formats the soak as a per-schedule accounting table —
// durable pipeline on the left, the legacy bus's losses on the right —
// plus every invariant violation.
func RenderStreamSoak(c *StreamSoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stream soak: %s (seed %d, %d schedules)\n", c.Label, c.Config.Seed, len(c.Runs))
	fmt.Fprintf(&b, "%-10s %6s %8s %7s %6s %7s %6s %7s %7s %6s %5s %7s %7s  %s\n",
		"schedule", "publ", "appended", "dropped", "acked", "redeliv", "naks", "missed", "deduped", "stored", "lag", "legacy", "lost", "invariants")
	for _, r := range c.Runs {
		verdict := "ok"
		if len(r.Violations) > 0 {
			verdict = fmt.Sprintf("VIOLATED (%d)", len(r.Violations))
		}
		fmt.Fprintf(&b, "%-10s %6d %8d %7d %6d %7d %6d %7d %7d %6d %5d %7d %7d  %s\n",
			r.Schedule, r.Published, r.Appended, r.RetentionDrops, r.Acked, r.Redelivered,
			r.Naks, r.Missed, r.Deduped, r.Stored, r.FinalLag, r.LegacyStored, r.LegacyLost, verdict)
	}
	fmt.Fprintf(&b, "total invariant violations: %d\n", c.Violations)
	fmt.Fprintf(&b, "legacy best-effort bus lost %d messages across the same schedules\n", c.LegacyLost)
	for _, r := range c.Runs {
		if len(r.Violations) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s violations:\n", r.Schedule)
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}
