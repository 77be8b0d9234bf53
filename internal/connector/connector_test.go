package connector

import (
	"testing"
	"time"

	"darshanldms/internal/darshan"
	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
	"darshanldms/internal/streams"
)

type env struct {
	e      *sim.Engine
	fs     *simfs.FileSystem
	rt     *darshan.Runtime
	daemon *ldms.Daemon
	count  *ldms.CountStore
}

func newEnv(t *testing.T, cfg Config) (*env, *Connector) {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	fscfg := simfs.DefaultNFS()
	fscfg.ShortWriteBase = -1
	fscfg.OpenRetryBase = -1
	fs := simfs.New(e, fscfg, rng.New(11).Derive("fs"))
	rt := darshan.NewRuntime(darshan.Config{JobID: 100, UID: 5, Exe: "/bin/app", DXT: true}, 0)
	d := ldms.NewDaemon("node-ldmsd", "nid00040")
	count := &ldms.CountStore{}
	tag := cfg.Tag
	if tag == "" {
		tag = DefaultTag
	}
	d.AttachStore(tag, count)
	c := Attach(rt, cfg, func(string) *ldms.Daemon { return d })
	return &env{e: e, fs: fs, rt: rt, daemon: d, count: count}, c
}

func runSimpleApp(t *testing.T, env *env, writes int) {
	t.Helper()
	env.e.Spawn("rank0", func(p *sim.Proc) {
		ctx := darshan.NewCtx(0, "nid00040", p, nil)
		f := darshan.OpenPosix(env.rt, env.fs, ctx, "/nscratch/out", true)
		for i := 0; i < writes; i++ {
			f.Write(p, int64(i)*4096, 4096)
		}
		f.Close(p)
	})
	if err := env.e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestPublishesEveryEvent(t *testing.T) {
	env, c := newEnv(t, Config{Encoder: jsonmsg.FastEncoder{}})
	runSimpleApp(t, env, 10)
	st := c.Stats()
	if st.Detected != 12 || st.Published != 12 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if env.count.Count() != 12 {
		t.Fatalf("store received %d", env.count.Count())
	}
}

func TestConnectorEndToEnd(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	fscfg := simfs.DefaultNFS()
	fscfg.ShortWriteBase = -1
	fscfg.OpenRetryBase = -1
	fs := simfs.New(e, fscfg, rng.New(3).Derive("fs"))
	rt := darshan.NewRuntime(darshan.Config{JobID: 42, UID: 9, Exe: "/bin/hacc"}, 0)
	node := ldms.NewDaemon("node", "nid00046")
	head := ldms.NewDaemon("head", "login")
	remote := ldms.NewDaemon("remote", "shirley")
	ldms.Relay(e, node, head, DefaultTag, 200*time.Microsecond)
	ldms.Relay(e, head, remote, DefaultTag, 200*time.Microsecond)
	cluster := dsos.NewCluster(2, "darshan_data")
	if err := dsos.SetupDarshan(cluster); err != nil {
		t.Fatal(err)
	}
	client := dsos.Connect(cluster)
	remote.AttachStore(DefaultTag, ldms.NewDSOSStore(client))

	Attach(rt, Config{
		Encoder: jsonmsg.FastEncoder{},
		Meta:    jsonmsg.JobMeta{UID: 9, JobID: 42, Exe: "/bin/hacc"},
	}, func(string) *ldms.Daemon { return node })

	e.Spawn("rank3", func(p *sim.Proc) {
		ctx := darshan.NewCtx(3, "nid00046", p, nil)
		f := darshan.OpenPosix(rt, fs, ctx, "/nscratch/ckpt", true)
		f.WriteFull(p, 0, 8<<20)
		f.ReadFull(p, 0, 8<<20)
		f.Close(p)
		p.Sleep(time.Second) // let relayed messages arrive
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}

	objs, err := client.Query("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 4 { // open, write, read, close
		t.Fatalf("stored %d objects", len(objs))
	}
	open := objs[0]
	if open.Str(jsonmsg.ColOp) != "open" || open.Str(jsonmsg.ColType) != jsonmsg.TypeMET {
		t.Fatalf("first object %v", open)
	}
	if open.Str(jsonmsg.ColExe) != "/bin/hacc" || open.Str(jsonmsg.ColFile) != "/nscratch/ckpt" {
		t.Fatalf("MET paths %v", open)
	}
	write := objs[1]
	if write.Str(jsonmsg.ColOp) != "write" || write.Str(jsonmsg.ColExe) != jsonmsg.NA {
		t.Fatalf("MOD write %v", write)
	}
	if write.Int(jsonmsg.ColSegLen) != 8<<20 {
		t.Fatalf("write len %v", write.Int(jsonmsg.ColSegLen))
	}
	// Timestamps must ascend through the job.
	last := 0.0
	for _, o := range objs {
		ts := o.Float(jsonmsg.ColSegTimestamp)
		if ts < last {
			t.Fatal("timestamps not monotone in job_rank_time order")
		}
		last = ts
	}
}

func TestSamplingEveryNth(t *testing.T) {
	env, c := newEnv(t, Config{Encoder: jsonmsg.FastEncoder{}, SampleEvery: 4})
	runSimpleApp(t, env, 98) // 100 events total
	st := c.Stats()
	if st.Detected != 100 {
		t.Fatalf("detected %d", st.Detected)
	}
	if st.Published != 25 {
		t.Fatalf("published %d, want 25 (every 4th)", st.Published)
	}
	if st.Sampled != 75 {
		t.Fatalf("sampled %d", st.Sampled)
	}
	if env.count.Count() != 25 {
		t.Fatalf("store received %d", env.count.Count())
	}
}

func TestSamplingReducesOverhead(t *testing.T) {
	run := func(sampleEvery int) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		fscfg := simfs.DefaultNFS()
		fscfg.ShortWriteBase = -1
		fscfg.OpenRetryBase = -1
		fs := simfs.New(e, fscfg, rng.New(7).Derive("fs"))
		rt := darshan.NewRuntime(darshan.Config{JobID: 1}, 0)
		d := ldms.NewDaemon("node", "nid00040")
		d.AttachStore(DefaultTag, &ldms.CountStore{})
		Attach(rt, Config{SampleEvery: sampleEvery, ChargeOverhead: true}, func(string) *ldms.Daemon { return d })
		e.Spawn("rank0", func(p *sim.Proc) {
			ctx := darshan.NewCtx(0, "nid00040", p, nil)
			f := darshan.OpenPosix(rt, fs, ctx, "/nscratch/o", true)
			for i := 0; i < 2000; i++ {
				f.Write(p, int64(i)*128, 128)
			}
			f.Close(p)
		})
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	full := run(1)
	sampled := run(10)
	if float64(sampled) > 0.6*float64(full) {
		t.Fatalf("every-10th sampling should cut runtime substantially: full=%v sampled=%v", full, sampled)
	}
}

func TestModuleFilter(t *testing.T) {
	env, c := newEnv(t, Config{
		Encoder: jsonmsg.FastEncoder{},
		Modules: []darshan.Module{darshan.ModMPIIO}, // POSIX filtered out
	})
	runSimpleApp(t, env, 5)
	st := c.Stats()
	if st.Published != 0 || st.Filtered != 7 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBestEffortDropWithoutStore(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	fscfg := simfs.DefaultNFS()
	fscfg.ShortWriteBase = -1
	fscfg.OpenRetryBase = -1
	fs := simfs.New(e, fscfg, rng.New(1).Derive("fs"))
	rt := darshan.NewRuntime(darshan.Config{JobID: 1}, 0)
	d := ldms.NewDaemon("node", "nid00040") // no subscriber attached
	c := Attach(rt, Config{Encoder: jsonmsg.FastEncoder{}}, func(string) *ldms.Daemon { return d })
	e.Spawn("rank0", func(p *sim.Proc) {
		ctx := darshan.NewCtx(0, "nid00040", p, nil)
		f := darshan.OpenPosix(rt, fs, ctx, "/nscratch/o", true)
		f.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Dropped != 2 || st.Published != 2 {
		t.Fatalf("stats %+v (publishes with no subscriber must count as dropped)", st)
	}
}

func TestOverheadChargeScalesWithEncoder(t *testing.T) {
	run := func(enc jsonmsg.Encoder) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		fscfg := simfs.DefaultLustre()
		fscfg.ShortWriteBase = -1
		fscfg.OpenRetryBase = -1
		fs := simfs.New(e, fscfg, rng.New(13).Derive("fs"))
		rt := darshan.NewRuntime(darshan.Config{JobID: 1}, 0)
		d := ldms.NewDaemon("node", "nid00040")
		d.AttachStore(DefaultTag, &ldms.CountStore{})
		Attach(rt, Config{Encoder: enc, ChargeOverhead: true}, func(string) *ldms.Daemon { return d })
		e.Spawn("rank0", func(p *sim.Proc) {
			ctx := darshan.NewCtx(0, "nid00040", p, sim.NewVClock(p, 50*time.Millisecond))
			f := darshan.OpenStdio(rt, fs, ctx, "/lscratch/db")
			for i := 0; i < 20000; i++ {
				f.Write(200)
			}
			f.Close()
			ctx.VClock().Flush()
		})
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	sprintf := run(jsonmsg.SprintfEncoder{})
	none := run(jsonmsg.NoneEncoder{})
	ratio := float64(sprintf) / float64(none)
	if ratio < 3 {
		t.Fatalf("sprintf encoder should inflate an I/O-intensive run: sprintf=%v none=%v (ratio %.2f)", sprintf, none, ratio)
	}
}

func TestDefaultsAreThePapersImplementation(t *testing.T) {
	c := New(Config{}, func(string) *ldms.Daemon { return nil })
	if c.Tag() != "darshanConnector" {
		t.Fatalf("tag %q", c.Tag())
	}
	if c.Encoder().Name() != "sprintf" {
		t.Fatalf("encoder %q", c.Encoder().Name())
	}
}

func TestNilRouterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{}, nil)
}

// TestHierarchicalSubjects: with the opt-in on, each event publishes on
// darshan.<producer>.<module> so wildcard subscribers and durable-stream
// subject filters can select slices of the event flow. The flat-tag
// subscriber sees nothing — the connector publishes on exactly one
// subject per event.
func TestHierarchicalSubjects(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	fscfg := simfs.DefaultNFS()
	fscfg.ShortWriteBase = -1
	fscfg.OpenRetryBase = -1
	fs := simfs.New(e, fscfg, rng.New(7).Derive("fs"))
	rt := darshan.NewRuntime(darshan.Config{JobID: 1}, 0)
	d := ldms.NewDaemon("node", "nid00040")

	var posix, anyNode, flat int
	d.Bus().Subscribe(Subject("nid00040", darshan.ModPOSIX), func(streams.Message) { posix++ })
	d.Bus().Subscribe("darshan.*.POSIX", func(streams.Message) { anyNode++ })
	d.Bus().Subscribe(DefaultTag, func(streams.Message) { flat++ })

	c := Attach(rt, Config{Encoder: jsonmsg.FastEncoder{}, HierarchicalSubjects: true},
		func(string) *ldms.Daemon { return d })
	e.Spawn("rank0", func(p *sim.Proc) {
		ctx := darshan.NewCtx(0, "nid00040", p, nil)
		f := darshan.OpenPosix(rt, fs, ctx, "/nscratch/o", true)
		f.Write(p, 0, 4096)
		f.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Published != 3 || st.Dropped != 0 {
		t.Fatalf("stats %+v", st)
	}
	if posix != 3 || anyNode != 3 || flat != 0 {
		t.Fatalf("posix=%d anyNode=%d flat=%d, want 3/3/0", posix, anyNode, flat)
	}
	if got := Subject("nid00040", darshan.ModPOSIX); got != "darshan.nid00040.POSIX" {
		t.Fatalf("Subject = %q", got)
	}
}

// TestTwoJobsOneProducerDedup: two connectors — two jobs — on one node
// both number their messages from 1. Behind one dedup store every event
// of both is stored and none is absorbed, each row still names the node
// as its producer, and a real replay of either job is still absorbed.
func TestTwoJobsOneProducerDedup(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	fscfg := simfs.DefaultNFS()
	fscfg.ShortWriteBase = -1
	fscfg.OpenRetryBase = -1
	fs := simfs.New(e, fscfg, rng.New(5).Derive("fs"))
	d := ldms.NewDaemon("node-ldmsd", "nid00040")
	count := &ldms.CountStore{}
	dedup := ldms.NewDedupStore(count)
	d.AttachStore(DefaultTag, dedup)
	var msgs []streams.Message
	d.Bus().Subscribe(DefaultTag, func(m streams.Message) { msgs = append(msgs, m) })

	for _, job := range []int64{100, 101} {
		rt := darshan.NewRuntime(darshan.Config{JobID: job, UID: 5, Exe: "/bin/app"}, 0)
		Attach(rt, Config{Encoder: jsonmsg.FastEncoder{}, Meta: jsonmsg.JobMeta{UID: 5, JobID: job, Exe: "/bin/app"}},
			func(string) *ldms.Daemon { return d })
		e.Spawn("rank0", func(p *sim.Proc) {
			ctx := darshan.NewCtx(0, "nid00040", p, nil)
			f := darshan.OpenPosix(rt, fs, ctx, "/nscratch/out", true)
			f.Write(p, 0, 4096)
			f.Close(p)
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 6 {
		t.Fatalf("published %d messages, want 6", len(msgs))
	}
	if dedup.Stored() != 6 || dedup.Duplicates() != 0 || count.Count() != 6 {
		t.Fatalf("dedup stored %d, absorbed %d, store got %d; want 6, 0, 6",
			dedup.Stored(), dedup.Duplicates(), count.Count())
	}
	for _, m := range msgs {
		msg, err := event.Fields(m)
		if err != nil {
			t.Fatal(err)
		}
		if msg.ProducerName != "nid00040" {
			t.Fatalf("row producer_name %q, want the node", msg.ProducerName)
		}
	}
	for _, m := range []streams.Message{msgs[0], msgs[len(msgs)-1]} {
		if err := dedup.Store(m); err != nil {
			t.Fatal(err)
		}
	}
	if dedup.Duplicates() != 2 || count.Count() != 6 {
		t.Fatalf("replays: absorbed %d, store got %d; want 2, 6", dedup.Duplicates(), count.Count())
	}
}
