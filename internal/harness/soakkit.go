package harness

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"darshanldms/internal/apps"
	"darshanldms/internal/cluster"
	"darshanldms/internal/connector"
	"darshanldms/internal/darshan"
	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/faults"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// The soak kit: what the fault campaign, the chaos soak and the
// rebalance soak share — the HACC-IO fault pipeline, the ack ledger, the
// acked-vs-merged multiset audit and the per-run report detail.

// faultRunConfig carries the fixed workload parameters of a fault run.
type faultRunConfig struct {
	seed             uint64
	scale            float64
	particlesPerRank int64
	fsKind           simfs.Kind
}

// storeFailProb is the FlakyStore failure probability while the "store"
// toggle is active; with 4 retry attempts ~87% of hits still land.
const storeFailProb = 0.6

// chaosReplayTail is the at-least-once tail a link retains for
// replay-outage heals — duplicates for the dedup layer to absorb. Only
// the links a profile's replay outages target ever re-send it.
const chaosReplayTail = 32

// faultPipeline is the HACC-IO monitoring pipeline under faults: Run's
// two-level topology (node ldmsd -> head aggregator -> remote aggregator)
// with every hop a faults.Link the controller can partition, slow down or
// stall, each retaining an at-least-once replay tail, and on the remote
// aggregator the store chain, outermost first: dedup absorbs replayed
// deliveries, the ack ledger witnesses what was promised durable, retry
// rides out transient store faults, flaky injects them (the "store"
// toggle), the caller's store stores. Every run carries its own
// registry, its latencies on the engine's virtual clock.
type faultPipeline struct {
	cfg       faultRunConfig
	e         *sim.Engine
	m         *cluster.Machine
	fs        *simfs.FileSystem
	rt        *darshan.Runtime
	ctl       *faults.Controller
	links     []*faults.Link
	linkNames []string
	conn      *connector.Connector
	retry     *ldms.RetryStore
	ack       *ackRecorder
	dedup     *ldms.DedupStore
	handle    *ldms.StoreHandle
	reg       *obs.Registry
}

// newFaultPipeline assembles the pipeline over store on a new engine,
// registering the head aggregator's crash as headName; the caller closes
// p.e.
func newFaultPipeline(cfg faultRunConfig, store ldms.StorePlugin, headName string) *faultPipeline {
	e := sim.NewEngine()
	p := &faultPipeline{cfg: cfg, e: e, m: cluster.New(e, cluster.Voltrino()), ctl: faults.NewController(e)}
	root := rng.New(cfg.seed)

	fscfg := fsConfig(cfg.fsKind)
	fscfg.Load = simfs.NominalLoad()
	p.fs = simfs.New(e, fscfg, root.Derive("fs"))
	p.rt = darshan.NewRuntime(darshan.Config{
		JobID: 1, UID: 99066, Exe: "/projects/hacc/hacc-io", DXT: true,
	}, 0)

	head := ldms.NewAggregator("agg-head", p.m.Head().Name)
	remote := ldms.NewAggregator("agg-remote", "shirley")
	addLink := func(name string, l *faults.Link) {
		l.SetReplayTail(chaosReplayTail)
		p.ctl.RegisterLink(name, l)
		p.links = append(p.links, l)
		p.linkNames = append(p.linkNames, name)
	}
	addLink("uplink", faults.NewLink(e, head.Daemon, remote.Daemon, connector.DefaultTag, 300*time.Microsecond))
	nodeDaemons := map[string]*ldms.Daemon{}
	nodeBuses := make([]*streams.Bus, 0, len(p.m.Nodes()))
	for _, n := range p.m.Nodes() {
		d := ldms.NewDaemon("ldmsd-"+n.Name, n.Name)
		d.AddSampler(ldms.NewMeminfoSampler(64<<20, root.DeriveN("meminfo", n.Index)))
		nodeDaemons[n.Name] = d
		nodeBuses = append(nodeBuses, d.Bus())
		addLink("node-"+n.Name, faults.NewLink(e, d, head.Daemon, connector.DefaultTag, 150*time.Microsecond))
	}
	// Crashing the head aggregator cuts every link that touches it.
	crash, restart := faults.CrashDaemon(p.links...)
	p.ctl.RegisterCrash(headName, crash, restart)

	flaky := faults.NewFlakyStore(store, root.Derive("storefault"), storeFailProb)
	p.ctl.RegisterToggle("store", flaky.SetActive)
	p.retry = ldms.NewRetryStore(flaky, ldms.RetryConfig{Attempts: 4})
	p.ack = newAckRecorder(p.retry)
	p.dedup = ldms.NewDedupStore(p.ack)
	p.handle = remote.AttachStore(connector.DefaultTag, p.dedup)

	p.conn = connector.Attach(p.rt, connector.Config{
		Encoder:        jsonmsg.FastEncoder{},
		Meta:           jsonmsg.JobMeta{UID: 99066, JobID: 1, Exe: "/projects/hacc/hacc-io"},
		ChargeOverhead: true,
	}, func(producer string) *ldms.Daemon { return nodeDaemons[producer] })

	p.reg = obs.NewRegistry()
	p.conn.Instrument(p.reg)
	connector.Collect(p.reg, []*connector.Connector{p.conn})
	collectBuses(p.reg, nodeBuses, head.Daemon.Bus(), remote.Daemon.Bus())
	p.dedup.Instrument(p.reg)
	p.retry.Collect(p.reg)
	return p
}

// runJob runs the HACC-IO job to completion and drains the pipeline for
// a second of virtual time, returning the job's runtime. Apply the fault
// profile first.
func (p *faultPipeline) runJob() (time.Duration, error) {
	hacc := apps.DefaultHACCIO(p.m.Nodes()[:16], scaleInt64(p.cfg.particlesPerRank, p.cfg.scale))
	apps.RunHACCIO(apps.Env{E: p.e, M: p.m, FS: p.fs, RT: p.rt}, hacc)
	if err := p.e.Run(0); err != nil {
		return 0, err
	}
	runtime := p.e.Now()
	return runtime, p.e.Drain(runtime + time.Second)
}

// linkStats sums the links' loss and recovery counters.
func (p *faultPipeline) linkStats() (dropped, recovered, duplicated uint64) {
	for _, l := range p.links {
		st := l.Stats()
		dropped += st.Dropped
		recovered += st.Recovered
		duplicated += st.Duplicated
	}
	return dropped, recovered, duplicated
}

// orDefault sets *v to d unless it is positive: a soak config's zero
// fields select the defaults.
func orDefault[T int | int64 | float64 | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

// objKey is the multiset identity of one stored object.
func objKey(o sos.Object) string { return fmt.Sprintf("%v", o.Values()) }

// multiset counts objs by identity.
func multiset(objs []sos.Object) map[string]int {
	set := make(map[string]int, len(objs))
	for _, o := range objs {
		set[objKey(o)]++
	}
	return set
}

// ackRecorder is the soaks' ack ledger. It sits below the dedup layer, so
// it sees each stored identity once, and on inner success records the
// objects the caller was just promised are durable — the "acked" side of
// the no-acked-record-lost invariant. It records per-message stores and
// round commits alike.
type ackRecorder struct {
	inner ldms.StorePlugin
	mu    sync.Mutex
	acked uint64
	objs  map[string]int
}

func newAckRecorder(inner ldms.StorePlugin) *ackRecorder {
	return &ackRecorder{inner: inner, objs: map[string]int{}}
}

// Name implements ldms.StorePlugin.
func (a *ackRecorder) Name() string { return "acktrack(" + a.inner.Name() + ")" }

// Store implements ldms.StorePlugin.
func (a *ackRecorder) Store(m streams.Message) error {
	if err := a.inner.Store(m); err != nil {
		return err
	}
	a.record(m)
	return nil
}

// StoreRound implements ldms.RoundStore over an inner RoundStore: the
// records the run's Keep let through to the inner store — its messages,
// or a body's records decoded here — are recorded once the inner store
// committed them.
func (a *ackRecorder) StoreRound(run ldms.Run, token uint64, dead func(error)) error {
	inner, ok := a.inner.(ldms.RoundStore)
	if !ok {
		return fmt.Errorf("harness: ack ledger over %s: it does not store rounds", a.inner.Name())
	}
	var kept []int
	keep, i := run.Keep, 0
	run.Keep = func(m streams.Message) bool {
		ok := keep == nil || keep(m)
		if ok {
			kept = append(kept, i)
		}
		i++
		return ok
	}
	if err := inner.StoreRound(run, token, dead); err != nil {
		return err
	}
	ms := run.Msgs
	if run.Body != nil {
		var err error
		if ms, err = streams.DecodeRecords(streams.BodyV2, run.Body); err != nil {
			return err
		}
	}
	for _, k := range kept {
		a.record(ms[k])
	}
	return nil
}

// record counts m as acked and its objects as promised durable; a
// message that does not decode stored nothing.
func (a *ackRecorder) record(m streams.Message) {
	msg, err := event.Fields(m)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.acked++
	if err == nil {
		for _, o := range dsos.ObjectsFromMessage(msg) {
			a.objs[objKey(o)]++
		}
	}
}

func (a *ackRecorder) snapshot() (uint64, map[string]int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, len(a.objs))
	for k, n := range a.objs {
		out[k] = n
	}
	return a.acked, out
}

// shortfall counts the copies want holds beyond got.
func shortfall(want, got map[string]int) int {
	n := 0
	for k, c := range want {
		if got[k] < c {
			n += c - got[k]
		}
	}
	return n
}

// auditAcked checks the soaks' invariants 1 and 2 on a final merged view:
// no acked object is missing from it, and it holds no copy beyond ref —
// the acked multiset itself, or a fault-free oracle's view, which refName
// names in the violation.
func auditAcked(acked, merged, ref map[string]int, refName string) (missing, extra int, violations []string) {
	if missing = shortfall(acked, merged); missing > 0 {
		violations = append(violations,
			fmt.Sprintf("acked-but-lost: %d acked objects missing from the merged view", missing))
	}
	if extra = shortfall(merged, ref); extra > 0 {
		violations = append(violations,
			fmt.Sprintf("duplicate-stored: %d objects beyond %s", extra, refName))
	}
	return missing, extra, violations
}

// verdict is a run's invariants column.
func verdict(violations []string) string {
	if len(violations) > 0 {
		return fmt.Sprintf("VIOLATED (%d)", len(violations))
	}
	return "ok"
}

// renderRunDetail appends one run's violations, notes and fault log under
// a heading.
func renderRunDetail(b *strings.Builder, heading string, violations, notes []string, log []faults.Record) {
	fmt.Fprintf(b, "\n%s\n", heading)
	for _, v := range violations {
		fmt.Fprintf(b, "  %s\n", v)
	}
	for _, n := range notes {
		fmt.Fprintf(b, "  note: %s\n", n)
	}
	for _, rec := range log {
		fmt.Fprintf(b, "  %s\n", rec)
	}
}
