package darshan

import (
	"testing"
	"time"

	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
)

func testEnv(t *testing.T) (*sim.Engine, *simfs.FileSystem, *Runtime) {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	cfg := simfs.DefaultNFS()
	cfg.ShortWriteBase = -1
	cfg.OpenRetryBase = -1
	fs := simfs.New(e, cfg, rng.New(42).Derive("fs"))
	rt := NewRuntime(Config{JobID: 259903, UID: 99066, Exe: "/home/user/mpi-io-test", DXT: true}, 0)
	return e, fs, rt
}

func ctxFor(p *sim.Proc) *Ctx { return NewCtx(0, "nid00046", p, nil) }

func TestRecordIDStable(t *testing.T) {
	a := RecordID("/nscratch/file.dat")
	b := RecordID("/nscratch/file.dat")
	c := RecordID("/nscratch/other.dat")
	if a != b {
		t.Fatal("RecordID not deterministic")
	}
	if a == c {
		t.Fatal("distinct paths collided")
	}
}

func TestPosixCountersAccumulate(t *testing.T) {
	e, fs, rt := testEnv(t)
	e.Spawn("app", func(p *sim.Proc) {
		ctx := ctxFor(p)
		f := OpenPosix(rt, fs, ctx, "/nscratch/data", true)
		f.WriteFull(p, 0, 1<<20)
		f.WriteFull(p, 1<<20, 1<<20)
		f.ReadFull(p, 0, 512<<10)
		f.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	sum := rt.Finalize(e.Now(), 1)
	if len(sum.Records) != 1 {
		t.Fatalf("records: %d", len(sum.Records))
	}
	r := sum.Records[0]
	if r.Opens != 1 || r.Closes != 1 || r.Writes != 2 || r.Reads != 1 {
		t.Fatalf("counters: %+v", r)
	}
	if r.BytesWritten != 2<<20 || r.BytesRead != 512<<10 {
		t.Fatalf("bytes: %+v", r)
	}
	if r.MaxByteWritten != 2<<20-1 {
		t.Fatalf("max byte written %d", r.MaxByteWritten)
	}
	if r.Switches != 1 { // write -> read alternation
		t.Fatalf("switches %d", r.Switches)
	}
}

func TestCntResetsOnClose(t *testing.T) {
	e, fs, rt := testEnv(t)
	var cnts []int64
	rt.AddListener(func(ctx *Ctx, ev *Event) { cnts = append(cnts, ev.Cnt) })
	e.Spawn("app", func(p *sim.Proc) {
		ctx := ctxFor(p)
		f := OpenPosix(rt, fs, ctx, "/nscratch/d", true)
		f.Write(p, 0, 4096)
		f.Write(p, 4096, 4096)
		f.Close(p)
		f2 := OpenPosix(rt, fs, ctx, "/nscratch/d", true)
		f2.Write(p, 8192, 4096)
		f2.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// open(1) write(2) write(3) close(0) open(1) write(2) close(0)
	want := []int64{1, 2, 3, 0, 1, 2, 0}
	if len(cnts) != len(want) {
		t.Fatalf("events %v", cnts)
	}
	for i, w := range want {
		if cnts[i] != w {
			t.Fatalf("cnt sequence %v, want %v", cnts, want)
		}
	}
}

func TestEventsCarryAbsoluteTimestamps(t *testing.T) {
	e, fs, rt := testEnv(t)
	var events []*Event
	rt.AddListener(func(ctx *Ctx, ev *Event) { events = append(events, ev) })
	e.Spawn("app", func(p *sim.Proc) {
		ctx := ctxFor(p)
		p.Sleep(5 * time.Second) // offset into the run
		f := OpenPosix(rt, fs, ctx, "/nscratch/d", true)
		f.WriteFull(p, 0, 32<<20)
		f.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(events) < 3 {
		t.Fatalf("events %d", len(events))
	}
	var last time.Duration
	for i, ev := range events {
		if ev.Start < 5*time.Second {
			t.Fatalf("event %d start %v predates the op window", i, ev.Start)
		}
		if ev.End < ev.Start {
			t.Fatalf("event %d end before start", i)
		}
		if ev.End < last {
			t.Fatalf("event timestamps not monotone")
		}
		last = ev.End
	}
	w := events[1]
	if w.Op != OpWrite || w.Duration() <= 0 {
		t.Fatalf("write event %+v", w)
	}
}

func TestListenerChargeExtendsRuntime(t *testing.T) {
	run := func(charge time.Duration) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		cfg := simfs.DefaultNFS()
		cfg.ShortWriteBase = -1
		cfg.OpenRetryBase = -1
		fs := simfs.New(e, cfg, rng.New(1).Derive("fs"))
		rt := NewRuntime(Config{JobID: 1}, 0)
		if charge > 0 {
			rt.AddListener(func(ctx *Ctx, ev *Event) { ctx.Charge(charge) })
		}
		e.Spawn("app", func(p *sim.Proc) {
			ctx := ctxFor(p)
			f := OpenPosix(rt, fs, ctx, "/nscratch/d", true)
			for i := 0; i < 100; i++ {
				f.Write(p, int64(i)*4096, 4096)
			}
			f.Close(p)
		})
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	base := run(0)
	charged := run(10 * time.Millisecond)
	if charged < base+900*time.Millisecond { // ~102 events x 10ms
		t.Fatalf("charge did not extend runtime: base %v, charged %v", base, charged)
	}
}

func TestModuleDisabling(t *testing.T) {
	e, fs, _ := testEnv(t)
	rt := NewRuntime(Config{JobID: 1, Modules: []Module{ModMPIIO}}, 0)
	events := 0
	rt.AddListener(func(ctx *Ctx, ev *Event) { events++ })
	e.Spawn("app", func(p *sim.Proc) {
		ctx := ctxFor(p)
		f := OpenPosix(rt, fs, ctx, "/nscratch/d", true)
		f.Write(p, 0, 4096)
		f.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if events != 0 {
		t.Fatalf("POSIX disabled but %d events fired", events)
	}
	if rt.EventCount() != 0 {
		t.Fatalf("event count %d", rt.EventCount())
	}
}

func TestDXTTracesSegments(t *testing.T) {
	e, fs, rt := testEnv(t)
	e.Spawn("app", func(p *sim.Proc) {
		ctx := ctxFor(p)
		f := OpenPosix(rt, fs, ctx, "/nscratch/d", true)
		f.Write(p, 0, 8192)
		f.Write(p, 8192, 8192)
		f.Read(p, 0, 4096)
		f.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	segs := rt.DXT().Segments(ModPOSIX, 0, RecordID("/nscratch/d"))
	if len(segs) != 5 { // open, 2 writes, read, close
		t.Fatalf("segments %d", len(segs))
	}
	if segs[1].Op != OpWrite || segs[1].Length != 8192 || segs[1].Offset != 0 {
		t.Fatalf("segment %+v", segs[1])
	}
	if segs[3].Op != OpRead || segs[3].Offset != 0 {
		t.Fatalf("segment %+v", segs[3])
	}
}

func TestStdioMacroStepping(t *testing.T) {
	e, fs, rt := testEnv(t)
	const ops = 5000
	events := 0
	rt.AddListener(func(ctx *Ctx, ev *Event) {
		if ev.Module == ModSTDIO {
			events++
		}
	})
	var last time.Duration
	mono := true
	rt.AddListener(func(ctx *Ctx, ev *Event) {
		if ev.End < last {
			mono = false
		}
		last = ev.End
	})
	e.Spawn("app", func(p *sim.Proc) {
		ctx := NewCtx(0, "nid00040", p, sim.NewVClock(p, 100*time.Millisecond))
		f := OpenStdio(rt, fs, ctx, "/nscratch/pfam.seed")
		for i := 0; i < ops; i++ {
			f.Read(80)
		}
		f.Close()
		ctx.VClock().Flush()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if events != ops+2 {
		t.Fatalf("stdio events %d, want %d", events, ops+2)
	}
	if !mono {
		t.Fatal("macro-stepped timestamps not monotone")
	}
	if e.Now() == 0 {
		t.Fatal("macro-stepped time did not advance")
	}
}

func TestHDF5EventsCarryDatasetMetrics(t *testing.T) {
	e, fs, rt := testEnv(t)
	var h5ev *Event
	rt.AddListener(func(ctx *Ctx, ev *Event) {
		if ev.Module == ModH5D && ev.Op == OpWrite {
			h5ev = ev
		}
	})
	e.Spawn("app", func(p *sim.Proc) {
		ctx := ctxFor(p)
		h := OpenH5(rt, fs, ctx, "/nscratch/out.h5", true)
		ds := h.CreateDataset("temperature", []int64{100, 200}, 8)
		ds.WriteHyperslab(0, 100*200)
		h.Flush()
		h.Close()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if h5ev == nil {
		t.Fatal("no H5D write event")
	}
	if h5ev.H5 == nil || h5ev.H5.DataSet != "temperature" || h5ev.H5.NDims != 2 || h5ev.H5.NPoints != 20000 {
		t.Fatalf("h5 info %+v", h5ev.H5)
	}
	sum := rt.Finalize(e.Now(), 1)
	var h5f *Record
	for _, r := range sum.Records {
		if r.Module == ModH5F {
			h5f = r
		}
	}
	if h5f == nil || h5f.Flushes != 1 {
		t.Fatalf("H5F record %+v", h5f)
	}
}

func TestSharedRecordReduction(t *testing.T) {
	e, fs, rt := testEnv(t)
	const nprocs = 4
	done := 0
	for i := 0; i < nprocs; i++ {
		i := i
		e.Spawn("rank", func(p *sim.Proc) {
			ctx := NewCtx(i, "nid00040", p, nil)
			f := OpenPosix(rt, fs, ctx, "/nscratch/shared", true)
			f.WriteFull(p, int64(i)<<20, 1<<20)
			f.Close(p)
			done++
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	sum := rt.Finalize(e.Now(), nprocs)
	if len(sum.Records) != nprocs {
		t.Fatalf("per-rank records %d", len(sum.Records))
	}
	reduced := sum.Reduce()
	if len(reduced) != 1 {
		t.Fatalf("reduced records %d, want 1 shared", len(reduced))
	}
	r := reduced[0]
	if r.Rank != -1 || r.Opens != nprocs || r.BytesWritten != nprocs<<20 {
		t.Fatalf("reduced %+v", r)
	}
}

func TestReduceKeepsPartialCoverage(t *testing.T) {
	e, fs, rt := testEnv(t)
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("rank", func(p *sim.Proc) {
			ctx := NewCtx(i, "nid00040", p, nil)
			if i < 2 { // only ranks 0,1 touch the file
				f := OpenPosix(rt, fs, ctx, "/nscratch/partial", true)
				f.Write(p, 0, 4096)
				f.Close(p)
			}
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	reduced := rt.Finalize(e.Now(), 4).Reduce()
	if len(reduced) != 2 {
		t.Fatalf("partial-coverage file must stay per-rank: %d records", len(reduced))
	}
}

func TestOpenRetryEventsVisible(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	cfg := simfs.DefaultNFS()
	cfg.OpenRetryBase = 0.5
	cfg.ShortWriteBase = -1
	fs := simfs.New(e, cfg, rng.New(77).Derive("fs"))
	rt := NewRuntime(Config{JobID: 1}, 0)
	opens := int64(0)
	rt.AddListener(func(ctx *Ctx, ev *Event) {
		if ev.Op == OpOpen {
			opens++
		}
	})
	e.Spawn("app", func(p *sim.Proc) {
		ctx := ctxFor(p)
		for i := 0; i < 30; i++ {
			f := OpenPosix(rt, fs, ctx, "/nscratch/d", true)
			f.Close(p)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if opens <= 30 {
		t.Fatalf("expected retry opens beyond 30, got %d", opens)
	}
}

func TestSummaryMetadata(t *testing.T) {
	e, fs, rt := testEnv(t)
	e.Spawn("app", func(p *sim.Proc) {
		ctx := ctxFor(p)
		f := OpenPosix(rt, fs, ctx, "/nscratch/d", true)
		f.Write(p, 0, 100)
		f.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	sum := rt.Finalize(e.Now(), 1)
	if sum.JobID != 259903 || sum.UID != 99066 || sum.Exe != "/home/user/mpi-io-test" {
		t.Fatalf("summary meta %+v", sum)
	}
	if sum.Events != 3 {
		t.Fatalf("event count %d", sum.Events)
	}
}
