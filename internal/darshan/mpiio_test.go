package darshan

import (
	"testing"

	"darshanldms/internal/cluster"
	"darshanldms/internal/mpi"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
)

func TestMPIFileWrappersRecordBothLayers(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	m := cluster.New(e, cluster.Voltrino())
	w := mpi.NewWorld(e, m, m.Nodes()[:2], 8)
	cfg := simfs.DefaultLustre()
	cfg.ShortWriteBase = -1
	cfg.OpenRetryBase = -1
	fs := simfs.New(e, cfg, rng.New(9).Derive("fs"))
	rt := NewRuntime(Config{JobID: 5, DXT: true}, 0)
	ctxs := make([]*Ctx, 8)
	pl := PosixLayer{RT: rt, FS: fs, Ctx: func(r int) *Ctx { return ctxs[r] }}
	const block = 8 << 20
	w.Launch(func(r *mpi.Rank) {
		ctxs[r.ID] = NewCtx(r.ID, r.Node().Name, r.Proc(), nil)
		f := OpenMPI(rt, r, fs, pl, mpi.IOConfig{}, "/lscratch/m.dat", true)
		f.WriteAt(int64(r.ID)*block, block)
		f.WriteAtAll(int64(8+r.ID)*block, block)
		f.ReadAt(int64(r.ID)*block, block)
		f.ReadAtAll(int64(8+r.ID)*block, block)
		f.Close()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	sum := rt.Finalize(e.Now(), 8)
	var mpiioWrites, mpiioReads, mpiioOpens, posixWrites int64
	for _, r := range sum.Records {
		switch r.Module {
		case ModMPIIO:
			mpiioWrites += r.Writes
			mpiioReads += r.Reads
			mpiioOpens += r.Opens
		case ModPOSIX:
			posixWrites += r.Writes
		}
	}
	if mpiioOpens != 8 || mpiioWrites != 16 || mpiioReads != 16 {
		t.Fatalf("MPIIO opens=%d writes=%d reads=%d", mpiioOpens, mpiioWrites, mpiioReads)
	}
	if posixWrites <= mpiioWrites {
		t.Fatalf("POSIX writes (%d) should exceed MPIIO (%d): chunking + collective buffering", posixWrites, mpiioWrites)
	}
	// DXT traced both layers.
	traced := 0
	for _, segs := range rt.DXT().traces {
		traced += len(segs)
	}
	if traced == 0 {
		t.Fatal("no DXT segments")
	}
	mpiioTrace := rt.DXT().Segments(ModMPIIO, 0, RecordID("/lscratch/m.dat"))
	if len(mpiioTrace) == 0 {
		t.Fatal("no MPIIO DXT trace")
	}
	exported := rt.DXT().Export()
	if len(exported) == 0 {
		t.Fatal("export empty")
	}
	total := 0
	for _, tr := range exported {
		total += len(tr.Segments)
	}
	if total != traced {
		t.Fatalf("export segments %d != traced %d", total, traced)
	}
}

func TestStdioWriteFlushSeek(t *testing.T) {
	e, fs, rt := testEnv(t)
	e.Spawn("app", func(p *sim.Proc) {
		ctx := NewCtx(0, "nid00040", p, sim.NewVClock(p, 0))
		f := OpenStdio(rt, fs, ctx, "/nscratch/s.txt")
		f.Write(100)
		f.Write(50)
		if f.Offset() != 150 {
			t.Errorf("offset %d", f.Offset())
		}
		f.Flush()
		f.Close()
		f.Close() // double close is a no-op
		ctx.VClock().Flush()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	var rec *Record
	for _, r := range rt.Finalize(e.Now(), 1).Records {
		if r.Module == ModSTDIO {
			rec = r
		}
	}
	if rec == nil || rec.Writes != 2 || rec.Flushes != 1 || rec.Opens != 1 || rec.Closes != 1 {
		t.Fatalf("stdio record %+v", rec)
	}
}

func TestH5ReadHyperslab(t *testing.T) {
	e, fs, rt := testEnv(t)
	e.Spawn("app", func(p *sim.Proc) {
		ctx := ctxFor(p)
		h := OpenH5(rt, fs, ctx, "/nscratch/r.h5", true)
		ds := h.CreateDataset("d", []int64{10, 10}, 8)
		ds.WriteHyperslab(0, 100)
		ds.ReadHyperslab(0, 50)
		h.Close()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	var h5d *Record
	for _, r := range rt.Finalize(e.Now(), 1).Records {
		if r.Module == ModH5D {
			h5d = r
		}
	}
	if h5d == nil || h5d.Reads != 1 || h5d.Writes != 1 {
		t.Fatalf("h5d record %+v", h5d)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	rt := NewRuntime(Config{JobID: 9, Modules: []Module{ModPOSIX}}, 0)
	if rt.Config().JobID != 9 {
		t.Fatal("Config")
	}
	if !rt.Enabled(ModPOSIX) || rt.Enabled(ModMPIIO) {
		t.Fatal("Enabled")
	}
	r := &Record{Module: ModPOSIX, Rank: 1, File: "/x", Opens: 2}
	if s := r.String(); s == "" {
		t.Fatal("String")
	}
	if SizeBinLabel(0) != "0_100" || SizeBinLabel(NumSizeBins-1) != "1G_PLUS" {
		t.Fatal("SizeBinLabel")
	}
}
