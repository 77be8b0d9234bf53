package mpi

import (
	"testing"

	"darshanldms/internal/cluster"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
)

func TestAllgather(t *testing.T) {
	e, _, w := testWorld(t, 2, 6)
	results := make([][]any, 6)
	w.Launch(func(r *Rank) {
		results[r.ID] = r.Allgather(r.ID * 7)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for rank, res := range results {
		if len(res) != 6 {
			t.Fatalf("rank %d got %d values", rank, len(res))
		}
		for i, v := range res {
			if v.(int) != i*7 {
				t.Fatalf("rank %d: allgather[%d]=%v", rank, i, v)
			}
		}
	}
}

func TestCollectiveLatencyGrowsWithWorldSize(t *testing.T) {
	eSmall, _, wSmall := testWorld(t, 2, 4)
	eBig, _, wBig := testWorld(t, 22, 352)
	var dSmall, dBig int64
	wSmall.Launch(func(r *Rank) {
		start := r.Now()
		r.Barrier()
		if r.ID == 0 {
			dSmall = int64(r.Now() - start)
		}
	})
	if err := eSmall.Run(0); err != nil {
		t.Fatal(err)
	}
	wBig.Launch(func(r *Rank) {
		start := r.Now()
		r.Barrier()
		if r.ID == 0 {
			dBig = int64(r.Now() - start)
		}
	})
	if err := eBig.Run(0); err != nil {
		t.Fatal(err)
	}
	if dBig <= dSmall {
		t.Fatalf("352-rank barrier (%d ns) should cost more than 4-rank (%d ns)", dBig, dSmall)
	}
}

func TestManyRanksManyCollectives(t *testing.T) {
	e, _, w := testWorld(t, 8, 128)
	w.Launch(func(r *Rank) {
		for i := 0; i < 10; i++ {
			var sum int64
			for _, v := range r.Allgather(int64(1)) {
				sum += v.(int64)
			}
			if sum != 128 {
				t.Errorf("round %d: sum %d", i, sum)
			}
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestWorldAccessors(t *testing.T) {
	e, m, w := testWorld(t, 4, 64)
	if w.Size() != 64 {
		t.Fatalf("size %d", w.Size())
	}
	if w.Machine() != m {
		t.Fatal("Machine accessor")
	}
	if w.NodeOf(0) != m.Node(0) || w.NodeOf(63) != m.Node(3) {
		t.Fatal("NodeOf")
	}
	var rankNode, rankWorld bool
	w.Launch(func(r *Rank) {
		if r.ID == 17 {
			rankNode = r.Node() == m.Node(1)
			rankWorld = r.World() == w
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !rankNode || !rankWorld {
		t.Fatal("rank accessors")
	}
}

func TestMPIIOReadBackRoundTrip(t *testing.T) {
	// Write independently, read back independently and collectively on
	// both file systems; all paths must return the full byte counts.
	for _, kind := range []simfs.Kind{simfs.NFS, simfs.Lustre} {
		e := sim.NewEngine()
		m := cluster.New(e, cluster.Voltrino())
		w := NewWorld(e, m, m.Nodes()[:2], 8)
		fs := newFS(t, e, kind)
		const block = 8 << 20
		w.Launch(func(r *Rank) {
			f := OpenFile(r, fs, RawPosix{FS: fs}, IOConfig{}, "/x/rb", true)
			if n := f.WriteAt(int64(r.ID)*block, block); n != block {
				t.Errorf("%s write %d", kind, n)
			}
			r.Barrier()
			if n := f.ReadAt(int64(r.ID)*block, block); n != block {
				t.Errorf("%s indep read %d", kind, n)
			}
			if n := f.ReadAtAll(int64(r.ID)*block, block); n != block {
				t.Errorf("%s coll read %d", kind, n)
			}
			if f.Posix().Path() != "/x/rb" {
				t.Errorf("path %q", f.Posix().Path())
			}
			f.Close()
		})
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		e.Close()
	}
}

func TestRawPosixReadWrite(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	fs := newFS(t, e, simfs.NFS)
	e.Spawn("p", func(p *sim.Proc) {
		pf := RawPosix{FS: fs}.Open(p, 0, "/nscratch/raw", true)
		if res := pf.Write(p, 0, 4096); res.N != 4096 {
			t.Errorf("write %d", res.N)
		}
		if res := pf.Read(p, 0, 4096); res.N != 4096 {
			t.Errorf("read %d", res.N)
		}
		pf.SetAligned(true)
		pf.Close(p)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}
