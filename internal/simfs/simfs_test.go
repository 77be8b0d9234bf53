package simfs

import (
	"testing"
	"time"

	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
)

func newFS(t *testing.T, kind Kind) (*sim.Engine, *FileSystem) {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	var cfg Config
	if kind == NFS {
		cfg = DefaultNFS()
	} else {
		cfg = DefaultLustre()
	}
	return e, New(e, cfg, rng.New(1234).Derive(string(kind)))
}

func TestOpenCreatesFile(t *testing.T) {
	e, fs := newFS(t, NFS)
	e.Spawn("app", func(p *sim.Proc) {
		h := fs.OpenRetry(p, 0, "/nscratch/data.dat", true, nil)
		if h.Path() != "/nscratch/data.dat" {
			t.Errorf("path %q", h.Path())
		}
		h.Write(p, 0, 4096)
		h.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/nscratch/data.dat") {
		t.Fatal("file not created")
	}
	if fs.FileSize("/nscratch/data.dat") != 4096 {
		t.Fatalf("size %d", fs.FileSize("/nscratch/data.dat"))
	}
}

func TestWriteAdvancesTimeProportionally(t *testing.T) {
	e, fs := newFS(t, NFS)
	var small, big time.Duration
	e.Spawn("app", func(p *sim.Proc) {
		h := fs.OpenRetry(p, 0, "/nscratch/f", true, nil)
		small = h.Write(p, 0, 1<<20).D
		big = h.Write(p, 1<<20, 64<<20).D
		h.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if big < 20*small {
		t.Fatalf("64MB write (%v) should dwarf 1MB write (%v)", big, small)
	}
}

func TestNFSContentionQueues(t *testing.T) {
	// Twice the slot count of concurrent writers should roughly double the
	// per-op completion time versus exactly slot-count writers.
	runAgg := func(writers int) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		cfg := DefaultNFS()
		cfg.ShortWriteBase = -1 // disable short writes for determinism
		cfg.OpenRetryBase = -1
		fs := New(e, cfg, rng.New(7).Derive("n"))
		for i := 0; i < writers; i++ {
			i := i
			e.Spawn("w", func(p *sim.Proc) {
				h := fs.OpenRetry(p, i, "/nscratch/shared", true, nil)
				h.Write(p, int64(i)<<24, 16<<20)
				h.Close(p)
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	base := runAgg(32)
	double := runAgg(64)
	ratio := float64(double) / float64(base)
	if ratio < 1.6 || ratio > 2.6 {
		t.Fatalf("64 vs 32 writers ratio %.2f, want ~2 (queueing)", ratio)
	}
}

func TestLustreAlignedFasterThanUnalignedShared(t *testing.T) {
	run := func(aligned bool) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		cfg := DefaultLustre()
		cfg.ShortWriteBase = -1
		cfg.OpenRetryBase = -1
		fs := New(e, cfg, rng.New(9).Derive("l"))
		const writers = 32
		for i := 0; i < writers; i++ {
			i := i
			e.Spawn("w", func(p *sim.Proc) {
				h := fs.OpenRetry(p, i, "/lscratch/shared", true, nil)
				h.SetAligned(aligned)
				h.Write(p, int64(i)*64<<20, 64<<20)
				h.Close(p)
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	al := run(true)
	un := run(false)
	if float64(un) < 1.5*float64(al) {
		t.Fatalf("unaligned shared writes (%v) should serialize vs aligned (%v)", un, al)
	}
}

func TestLustreStripingSplitsAcrossOSTs(t *testing.T) {
	e, fs := newFS(t, Lustre)
	var h *Handle
	e.Spawn("app", func(p *sim.Proc) {
		h = fs.OpenRetry(p, 0, "/lscratch/f", true, nil)
		h.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	chunks := h.stripeChunks(0, 32<<20) // 32 MiB over 4 MiB stripes = 8 OSTs
	if len(chunks) != 8 {
		t.Fatalf("got %d chunks, want 8", len(chunks))
	}
	var total int64
	for _, c := range chunks {
		total += c.bytes
		if c.ost < 0 || c.ost >= 8 {
			t.Fatalf("bad ost %d", c.ost)
		}
	}
	if total != 32<<20 {
		t.Fatalf("chunk bytes %d", total)
	}
}

func TestStripeChunksCoalesce(t *testing.T) {
	e, fs := newFS(t, Lustre)
	var h *Handle
	e.Spawn("app", func(p *sim.Proc) {
		h = fs.OpenRetry(p, 0, "/lscratch/f", true, nil)
		h.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// 64 MiB = 16 stripes over 8 OSTs: each OST appears once, coalesced.
	chunks := h.stripeChunks(0, 64<<20)
	if len(chunks) != 8 {
		t.Fatalf("got %d chunks, want 8 coalesced", len(chunks))
	}
	for _, c := range chunks {
		if c.bytes != 8<<20 {
			t.Fatalf("chunk bytes %d, want 8MiB", c.bytes)
		}
	}
}

func TestCachedReadBack(t *testing.T) {
	e, fs := newFS(t, NFS)
	var wd, rd time.Duration
	e.Spawn("app", func(p *sim.Proc) {
		h := fs.OpenRetry(p, 3, "/nscratch/ckpt", true, nil)
		wd = h.Write(p, 0, 16<<20).D
		rd = h.Read(p, 0, 16<<20).D
		h.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if rd*20 > wd {
		t.Fatalf("cached read (%v) should be far faster than write (%v)", rd, wd)
	}
}

func TestCongestionEvictsCaches(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	cfg := DefaultNFS()
	cfg.Load = NominalLoad()
	cfg.Load.Events = []CongestionEvent{{Start: 0, End: time.Hour, Factor: 3, CacheMissProb: 1}}
	fs := New(e, cfg, rng.New(5).Derive("n"))
	var rd time.Duration
	e.Spawn("app", func(p *sim.Proc) {
		h := fs.OpenRetry(p, 0, "/nscratch/f", true, nil)
		h.Write(p, 0, 16<<20)
		rd = h.Read(p, 0, 16<<20).D
		h.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// Uncached 16 MiB on congested NFS: on the order of seconds.
	if rd < time.Second {
		t.Fatalf("read under cache-dropping congestion too fast: %v", rd)
	}
}

func TestLoadFactorSlowsIO(t *testing.T) {
	run := func(epoch float64) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		cfg := DefaultNFS()
		cfg.ShortWriteBase = -1
		cfg.OpenRetryBase = -1
		cfg.Load = &LoadProfile{Epoch: epoch}
		fs := New(e, cfg, rng.New(11).Derive("n"))
		e.Spawn("w", func(p *sim.Proc) {
			h := fs.OpenRetry(p, 0, "/nscratch/f", true, nil)
			h.Write(p, 0, 64<<20)
			h.Close(p)
		})
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	fast := run(1.0)
	slow := run(2.0)
	ratio := float64(slow) / float64(fast)
	if ratio < 1.5 || ratio > 2.8 {
		t.Fatalf("epoch 2.0 vs 1.0 ratio %.2f, want ~2", ratio)
	}
}

func TestShortWritesOccurUnderLoad(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	cfg := DefaultNFS()
	cfg.ShortWriteBase = 0.5
	fs := New(e, cfg, rng.New(13).Derive("n"))
	shorts := 0
	e.Spawn("w", func(p *sim.Proc) {
		h := fs.OpenRetry(p, 0, "/nscratch/f", true, nil)
		var off int64
		for i := 0; i < 40; i++ {
			res := h.Write(p, off, 16<<20)
			if res.N < 16<<20 {
				shorts++
			}
			off += res.N
		}
		h.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if shorts == 0 {
		t.Fatal("expected some short writes at base probability 0.5")
	}
}

func TestShortWriteNeverZeroOrOverlong(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	cfg := DefaultLustre()
	cfg.ShortWriteBase = 0.9
	fs := New(e, cfg, rng.New(17).Derive("l"))
	e.Spawn("w", func(p *sim.Proc) {
		h := fs.OpenRetry(p, 0, "/lscratch/f", true, nil)
		for i := 0; i < 60; i++ {
			res := h.Write(p, 0, 8<<20)
			if res.N <= 0 || res.N > 8<<20 {
				t.Errorf("write returned %d bytes", res.N)
			}
		}
		h.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRetryReportsAttempts(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	cfg := DefaultNFS()
	cfg.OpenRetryBase = 0.6
	fs := New(e, cfg, rng.New(19).Derive("n"))
	attempts, failures := 0, 0
	e.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			h := fs.OpenRetry(p, 0, "/nscratch/f", false, func(d time.Duration, err error) {
				attempts++
				if err != nil {
					failures++
				}
			})
			h.Close(p)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if failures == 0 {
		t.Fatal("expected transient open failures at probability 0.6")
	}
	if attempts != 20+failures {
		t.Fatalf("attempts %d, failures %d: every failure should add an attempt", attempts, failures)
	}
}

func TestEstimateOpOrdering(t *testing.T) {
	_, nfs := newFS(t, NFS)
	_, lfs := newFS(t, Lustre)
	nw := nfs.EstimateOp(OpWrite, 200, 0)
	lw := lfs.EstimateOp(OpWrite, 200, 0)
	if nw < 3*lw {
		t.Fatalf("small write on NFS (%v) should be far costlier than Lustre (%v)", nw, lw)
	}
	nr := nfs.EstimateOp(OpRead, 200, 0)
	if nr > nw {
		t.Fatalf("buffered read (%v) should be cheaper than sync small write (%v)", nr, nw)
	}
}

func TestLoadProfileFactor(t *testing.T) {
	l := &LoadProfile{Epoch: 1.5, Wiggle: 0, Events: []CongestionEvent{
		{Start: 10 * time.Second, End: 20 * time.Second, Factor: 2},
	}}
	if f := l.FactorAt(5 * time.Second); f != 1.5 {
		t.Fatalf("pre-event factor %v", f)
	}
	if f := l.FactorAt(15 * time.Second); f != 3.0 {
		t.Fatalf("in-event factor %v", f)
	}
	if f := l.FactorAt(25 * time.Second); f != 1.5 {
		t.Fatalf("post-event factor %v", f)
	}
}

func TestDrawEpochBounded(t *testing.T) {
	r := rng.New(23)
	for i := 0; i < 200; i++ {
		l := DrawEpoch(r.DeriveN("c", i), 0.4)
		if l.Epoch < 0.6 || l.Epoch > 2.2 {
			t.Fatalf("epoch %v out of clamp", l.Epoch)
		}
	}
}

func TestDrawEpochVaries(t *testing.T) {
	r := rng.New(29)
	a := DrawEpoch(r.DeriveN("c", 0), 0.2).Epoch
	b := DrawEpoch(r.DeriveN("c", 1), 0.2).Epoch
	if a == b {
		t.Fatal("distinct campaign streams drew identical epochs")
	}
}
