package mpi

import (
	"testing"
	"time"

	"darshanldms/internal/cluster"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
)

func testWorld(t *testing.T, nodes, ranks int) (*sim.Engine, *cluster.Machine, *World) {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	cfg := cluster.Voltrino()
	m := cluster.New(e, cfg)
	w := NewWorld(e, m, m.Nodes()[:nodes], ranks)
	return e, m, w
}

func TestLaunchRunsAllRanks(t *testing.T) {
	e, _, w := testWorld(t, 4, 64)
	seen := make([]bool, 64)
	w.Launch(func(r *Rank) { seen[r.ID] = true })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("rank %d never ran", i)
		}
	}
}

func TestBarrierAlignsRanks(t *testing.T) {
	e, _, w := testWorld(t, 2, 8)
	var after []time.Duration
	w.Launch(func(r *Rank) {
		r.Proc().Sleep(time.Duration(r.ID) * time.Second)
		r.Barrier()
		after = append(after, r.Now())
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, a := range after {
		if a < 7*time.Second {
			t.Fatalf("rank released before slowest arrival: %v", after)
		}
	}
}

func TestMultipleCollectivesInOrder(t *testing.T) {
	e, _, w := testWorld(t, 2, 4)
	w.Launch(func(r *Rank) {
		for i := 0; i < 20; i++ {
			for k, v := range r.Allgather(i*100 + r.ID) {
				if want := i*100 + k; v.(int) != want {
					t.Errorf("round %d rank %d: got %v want %d", i, k, v, want)
				}
			}
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv(t *testing.T) {
	e, _, w := testWorld(t, 2, 2)
	var got any
	w.Launch(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 7, 1024, "payload")
		} else {
			got = r.Recv(0, 7)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != "payload" {
		t.Fatalf("got %v", got)
	}
}

func TestSendRecvTagIsolation(t *testing.T) {
	e, _, w := testWorld(t, 2, 2)
	var a, b any
	w.Launch(func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, 10, "one")
			r.Send(1, 2, 10, "two")
		} else {
			b = r.Recv(0, 2) // receive tag 2 first
			a = r.Recv(0, 1)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if a != "one" || b != "two" {
		t.Fatalf("a=%v b=%v", a, b)
	}
}

func TestMismatchedCollectivesDeadlockDetected(t *testing.T) {
	e, _, w := testWorld(t, 2, 2)
	w.Launch(func(r *Rank) {
		if r.ID == 0 {
			r.Barrier()
		}
		// rank 1 exits without the barrier: deadlock must be reported.
	})
	if err := e.Run(0); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func newFS(t *testing.T, e *sim.Engine, kind simfs.Kind) *simfs.FileSystem {
	t.Helper()
	var cfg simfs.Config
	if kind == simfs.NFS {
		cfg = simfs.DefaultNFS()
	} else {
		cfg = simfs.DefaultLustre()
	}
	cfg.ShortWriteBase = -1
	cfg.OpenRetryBase = -1
	return simfs.New(e, cfg, rng.New(99).Derive(string(kind)))
}

func TestMPIIOIndependentWrite(t *testing.T) {
	e, _, w := testWorld(t, 2, 8)
	fs := newFS(t, e, simfs.NFS)
	const block = 4 << 20
	w.Launch(func(r *Rank) {
		f := OpenFile(r, fs, RawPosix{FS: fs}, IOConfig{}, "/nscratch/t.dat", true)
		n := f.WriteAt(int64(r.ID)*block, block)
		if n != block {
			t.Errorf("rank %d wrote %d", r.ID, n)
		}
		f.Close()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := fs.FileSize("/nscratch/t.dat"); got != 8*block {
		t.Fatalf("file size %d, want %d", got, 8*block)
	}
}

func TestMPIIOCollectiveWritesWholeFile(t *testing.T) {
	e, _, w := testWorld(t, 2, 8)
	fs := newFS(t, e, simfs.Lustre)
	const block = 4 << 20
	w.Launch(func(r *Rank) {
		f := OpenFile(r, fs, RawPosix{FS: fs}, IOConfig{}, "/lscratch/t.dat", true)
		f.WriteAtAll(int64(r.ID)*block, block)
		f.Close()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := fs.FileSize("/lscratch/t.dat"); got != 8*block {
		t.Fatalf("file size %d, want %d", got, 8*block)
	}
}

func TestCollectiveFasterThanIndependentOnLustre(t *testing.T) {
	// The inversion requires more aggregators than the extent-lock-bound
	// independent aggregate (as in the paper's 22-node runs): 16 nodes ->
	// 16 aggregator streams vs 8 lock-serialized OST streams.
	run := func(collective bool) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		m := cluster.New(e, cluster.Voltrino())
		w := NewWorld(e, m, m.Nodes()[:16], 64)
		cfg := simfs.DefaultLustre()
		cfg.ShortWriteBase = -1
		cfg.OpenRetryBase = -1
		fs := simfs.New(e, cfg, rng.New(7).Derive("l"))
		const block = 16 << 20
		w.Launch(func(r *Rank) {
			f := OpenFile(r, fs, RawPosix{FS: fs}, IOConfig{}, "/lscratch/x", true)
			if collective {
				f.WriteAtAll(int64(r.ID)*block, block)
			} else {
				f.WriteAt(int64(r.ID)*block, block)
			}
			f.Close()
		})
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	coll := run(true)
	indep := run(false)
	if float64(indep) < 1.3*float64(coll) {
		t.Fatalf("Lustre: independent (%v) should be slower than collective (%v)", indep, coll)
	}
}

func TestCollectiveSlowerThanIndependentOnNFS(t *testing.T) {
	run := func(collective bool) time.Duration {
		e := sim.NewEngine()
		defer e.Close()
		m := cluster.New(e, cluster.Voltrino())
		w := NewWorld(e, m, m.Nodes()[:4], 64)
		cfg := simfs.DefaultNFS()
		cfg.ShortWriteBase = -1
		cfg.OpenRetryBase = -1
		fs := simfs.New(e, cfg, rng.New(7).Derive("n"))
		const block = 16 << 20
		w.Launch(func(r *Rank) {
			f := OpenFile(r, fs, RawPosix{FS: fs}, IOConfig{}, "/nscratch/x", true)
			if collective {
				f.WriteAtAll(int64(r.ID)*block, block)
			} else {
				f.WriteAt(int64(r.ID)*block, block)
			}
			f.Close()
		})
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}
	coll := run(true)
	indep := run(false)
	if float64(coll) < 1.2*float64(indep) {
		t.Fatalf("NFS: collective (%v) should be slower than independent (%v) — Table IIa inversion", coll, indep)
	}
}

func TestLustreIndepChunking(t *testing.T) {
	// A 16 MiB independent write on Lustre must become stripe-size POSIX
	// calls (the Table IIa message-count mechanism).
	e, _, w := testWorld(t, 1, 1)
	fs := newFS(t, e, simfs.Lustre)
	counter := &countingLayer{inner: RawPosix{FS: fs}}
	w.Launch(func(r *Rank) {
		f := OpenFile(r, fs, counter, IOConfig{}, "/lscratch/c", true)
		f.WriteAt(0, 16<<20)
		f.Close()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if counter.writes != 4 { // 16 MiB / 4 MiB stripes
		t.Fatalf("POSIX writes = %d, want 4", counter.writes)
	}
}

type countingLayer struct {
	inner  PosixLayer
	writes int
	reads  int
	opens  int
}

func (c *countingLayer) Open(p *sim.Proc, rank int, path string, write bool) PosixFile {
	c.opens++
	return &countingFile{inner: c.inner.Open(p, rank, path, write), c: c}
}

type countingFile struct {
	inner PosixFile
	c     *countingLayer
}

func (f *countingFile) Write(p *sim.Proc, off, n int64) simfs.Result {
	f.c.writes++
	return f.inner.Write(p, off, n)
}
func (f *countingFile) Read(p *sim.Proc, off, n int64) simfs.Result {
	f.c.reads++
	return f.inner.Read(p, off, n)
}
func (f *countingFile) Close(p *sim.Proc) time.Duration { return f.inner.Close(p) }
func (f *countingFile) SetAligned(a bool)               { f.inner.SetAligned(a) }
func (f *countingFile) Path() string                    { return f.inner.Path() }

func TestAggregatorCount(t *testing.T) {
	// 64 ranks on 4 nodes, 1 aggregator per node -> exactly 4 aggregator
	// ranks do the collective POSIX writes.
	e, _, w := testWorld(t, 4, 64)
	fs := newFS(t, e, simfs.Lustre)
	counter := &countingLayer{inner: RawPosix{FS: fs}}
	aggWriters := map[int]bool{}
	var mu = map[int]int{}
	_ = mu
	w.Launch(func(r *Rank) {
		f := OpenFile(r, fs, counter, IOConfig{}, "/lscratch/a", true)
		if f.isAgg {
			aggWriters[r.ID] = true
		}
		f.WriteAtAll(int64(r.ID)<<20, 1<<20)
		f.Close()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(aggWriters) != 4 {
		t.Fatalf("aggregators: %v", aggWriters)
	}
	for id := range aggWriters {
		if id%16 != 0 {
			t.Fatalf("aggregator %d is not a node-first rank", id)
		}
	}
}

func TestComputeChargesNodeCPU(t *testing.T) {
	e, _, w := testWorld(t, 1, 2)
	var end time.Duration
	w.Launch(func(r *Rank) {
		r.Compute(2 * time.Second)
		end = r.Now()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if end != 2*time.Second {
		t.Fatalf("compute end %v", end)
	}
}
