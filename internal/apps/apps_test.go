package apps

import (
	"testing"
	"time"

	"darshanldms/internal/cluster"
	"darshanldms/internal/darshan"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
)

// testEnv builds a quiet (no short writes / open retries) environment so
// the structural assertions are deterministic.
func testEnv(t *testing.T, kind simfs.Kind, seed uint64, quiet bool) Env {
	t.Helper()
	e := sim.NewEngine()
	t.Cleanup(e.Close)
	m := cluster.New(e, cluster.Voltrino())
	var fscfg simfs.Config
	if kind == simfs.NFS {
		fscfg = simfs.DefaultNFS()
	} else {
		fscfg = simfs.DefaultLustre()
	}
	if quiet {
		fscfg.ShortWriteBase = -1
		fscfg.OpenRetryBase = -1
	}
	fs := simfs.New(e, fscfg, rng.New(seed).Derive("fs"))
	rt := darshan.NewRuntime(darshan.Config{JobID: 1, UID: 100, Exe: "/bin/test", DXT: true}, 0)
	return Env{E: e, M: m, FS: fs, RT: rt}
}

func TestMPIIOTestEventStructure(t *testing.T) {
	env := testEnv(t, simfs.NFS, 1, true)
	cfg := DefaultMPIIOTest(env.M.Nodes()[:2], false)
	cfg.RanksPerNode = 4 // 8 ranks
	RunMPIIOTest(env, cfg)
	if err := env.E.Run(0); err != nil {
		t.Fatal(err)
	}
	sum := env.RT.Finalize(env.E.Now(), cfg.Ranks())
	var posixWrites, mpiioWrites, posixReads, opens int64
	for _, r := range sum.Records {
		switch r.Module {
		case darshan.ModPOSIX:
			posixWrites += r.Writes
			posixReads += r.Reads
			opens += r.Opens
		case darshan.ModMPIIO:
			mpiioWrites += r.Writes
		}
	}
	// Independent on NFS: one POSIX write per MPIIO write.
	if mpiioWrites != int64(cfg.Ranks()*cfg.Iterations) {
		t.Fatalf("mpiio writes %d", mpiioWrites)
	}
	if posixWrites != mpiioWrites {
		t.Fatalf("posix writes %d, mpiio %d (NFS independent should be 1:1)", posixWrites, mpiioWrites)
	}
	if posixReads != int64(cfg.Ranks()*cfg.ReadBackIterations) {
		t.Fatalf("posix reads %d", posixReads)
	}
	if opens != int64(cfg.Ranks()) {
		t.Fatalf("posix opens %d", opens)
	}
	// All bytes written.
	want := int64(cfg.Ranks()) * int64(cfg.Iterations) * cfg.BlockSize
	if got := env.FS.FileSize(env.FS.Mount() + "/mpi-io-test.out.dat"); got != want {
		t.Fatalf("file size %d, want %d", got, want)
	}
}

func TestMPIIOTestLustreChunksMultiplyPosixEvents(t *testing.T) {
	env := testEnv(t, simfs.Lustre, 2, true)
	cfg := DefaultMPIIOTest(env.M.Nodes()[:2], false)
	cfg.RanksPerNode = 4
	RunMPIIOTest(env, cfg)
	if err := env.E.Run(0); err != nil {
		t.Fatal(err)
	}
	sum := env.RT.Finalize(env.E.Now(), cfg.Ranks())
	var posixWrites, mpiioWrites int64
	for _, r := range sum.Records {
		if r.Module == darshan.ModPOSIX {
			posixWrites += r.Writes
		}
		if r.Module == darshan.ModMPIIO {
			mpiioWrites += r.Writes
		}
	}
	// 16 MiB blocks over 4 MiB stripes: 4 POSIX writes per MPI-IO write —
	// the Table IIa message-count inflation on Lustre.
	if posixWrites != 4*mpiioWrites {
		t.Fatalf("posix %d vs mpiio %d writes, want 4:1", posixWrites, mpiioWrites)
	}
}

func TestMPIIOTestCollectiveAggregators(t *testing.T) {
	env := testEnv(t, simfs.Lustre, 3, true)
	cfg := DefaultMPIIOTest(env.M.Nodes()[:4], true)
	cfg.RanksPerNode = 4 // 16 ranks, 4 aggregators
	RunMPIIOTest(env, cfg)
	if err := env.E.Run(0); err != nil {
		t.Fatal(err)
	}
	sum := env.RT.Finalize(env.E.Now(), cfg.Ranks())
	writersByRank := map[int]int64{}
	for _, r := range sum.Records {
		if r.Module == darshan.ModPOSIX && r.Writes > 0 {
			writersByRank[r.Rank] += r.Writes
		}
	}
	if len(writersByRank) != 4 {
		t.Fatalf("POSIX writers %v, want only the 4 aggregators", writersByRank)
	}
	for rank := range writersByRank {
		if rank%4 != 0 {
			t.Fatalf("rank %d wrote but is not an aggregator", rank)
		}
	}
}

func TestHACCIOEventStructure(t *testing.T) {
	env := testEnv(t, simfs.Lustre, 4, true)
	cfg := DefaultHACCIO(env.M.Nodes()[:2], 100_000)
	cfg.RanksPerNode = 4
	RunHACCIO(env, cfg)
	if err := env.E.Run(0); err != nil {
		t.Fatal(err)
	}
	sum := env.RT.Finalize(env.E.Now(), cfg.Ranks())
	var opens, closes, writes, reads int64
	for _, r := range sum.Records {
		if r.Module != darshan.ModPOSIX {
			continue
		}
		opens += r.Opens
		closes += r.Closes
		writes += r.Writes
		reads += r.Reads
	}
	n := int64(cfg.Ranks())
	if opens != 2*n || closes != 2*n {
		t.Fatalf("opens %d closes %d, want %d each", opens, closes, 2*n)
	}
	if writes < n || reads < n {
		t.Fatalf("writes %d reads %d", writes, reads)
	}
	wantSize := n * cfg.BytesPerRank()
	if got := env.FS.FileSize(env.FS.Mount() + "/hacc-io-checkpoint.dat"); got != wantSize {
		t.Fatalf("checkpoint size %d want %d", got, wantSize)
	}
}

func TestHACCIOMessageScaleMatchesPaper(t *testing.T) {
	// Full-scale HACC-IO produces on the order of 1.7-2k events
	// (Table IIb "Avg. Messages": 1663-1995).
	env := testEnv(t, simfs.Lustre, 5, false)
	cfg := DefaultHACCIO(env.M.Nodes()[:16], 10_000) // small particles: same op structure
	RunHACCIO(env, cfg)
	if err := env.E.Run(0); err != nil {
		t.Fatal(err)
	}
	events := env.RT.EventCount()
	if events < 1500 || events > 2600 {
		t.Fatalf("HACC-IO events %d, want ~1.6k-2.2k", events)
	}
}

func TestHACCIORetriesVaryOpCounts(t *testing.T) {
	// With short writes and open retries enabled, two identical jobs must
	// not always produce identical op counts (Fig 5's run-to-run
	// variation).
	counts := map[int64]bool{}
	for i := 0; i < 4; i++ {
		env := testEnv(t, simfs.NFS, uint64(100+i), false)
		env.FS.Load().Epoch = 1.6 // heavy load raises retry probability
		cfg := DefaultHACCIO(env.M.Nodes()[:4], 300_000)
		cfg.RanksPerNode = 8
		RunHACCIO(env, cfg)
		if err := env.E.Run(0); err != nil {
			t.Fatal(err)
		}
		counts[env.RT.EventCount()] = true
	}
	if len(counts) < 2 {
		t.Fatalf("4 jobs under load produced identical event counts %v", counts)
	}
}

func TestHMMEREventVolume(t *testing.T) {
	env := testEnv(t, simfs.NFS, 6, true)
	cfg := DefaultHMMER(env.M.Node(0), simfs.NFS)
	cfg.Families = 500 // scaled for test speed; volume scales linearly
	RunHMMER(env, cfg)
	if err := env.E.Run(0); err != nil {
		t.Fatal(err)
	}
	events := env.RT.EventCount()
	// ~500 x (55+100) plus opens/closes/flushes.
	want := int64(500 * (55 + 100))
	if events < want || events > want+1000 {
		t.Fatalf("events %d, want ~%d", events, want)
	}
}

func TestHMMERLustreMoreEventsThanNFS(t *testing.T) {
	run := func(kind simfs.Kind) int64 {
		env := testEnv(t, kind, 7, true)
		cfg := DefaultHMMER(env.M.Node(0), kind)
		cfg.Families = 300
		RunHMMER(env, cfg)
		if err := env.E.Run(0); err != nil {
			t.Fatal(err)
		}
		return env.RT.EventCount()
	}
	nfs := run(simfs.NFS)
	lustre := run(simfs.Lustre)
	if lustre <= nfs {
		t.Fatalf("Lustre events (%d) should exceed NFS (%d) as in Table IIc", lustre, nfs)
	}
}

func TestHMMERNFSSlowerThanLustre(t *testing.T) {
	run := func(kind simfs.Kind) time.Duration {
		env := testEnv(t, kind, 8, true)
		cfg := DefaultHMMER(env.M.Node(0), kind)
		cfg.Families = 2000
		RunHMMER(env, cfg)
		if err := env.E.Run(0); err != nil {
			t.Fatal(err)
		}
		return env.E.Now()
	}
	nfs := run(simfs.NFS)
	lustre := run(simfs.Lustre)
	if float64(nfs) < 2.5*float64(lustre) {
		t.Fatalf("small-write workload: NFS (%v) should be much slower than Lustre (%v)", nfs, lustre)
	}
}

func TestSW4WritesImages(t *testing.T) {
	env := testEnv(t, simfs.Lustre, 9, true)
	cfg := DefaultSW4(env.M.Nodes()[:2])
	cfg.RanksPerNode = 4
	cfg.Steps = 10
	cfg.ImageEvery = 5
	cfg.BytesPerRank = 4 << 20
	cfg.ComputePerStep = 100 * time.Millisecond
	RunSW4(env, cfg)
	if err := env.E.Run(0); err != nil {
		t.Fatal(err)
	}
	// Two image files, each ranks x 4 MiB.
	found := 0
	for _, name := range []string{"image.cycle0005.3Dimg", "image.cycle0010.3Dimg"} {
		path := env.FS.Mount() + "/sw4/" + name
		if env.FS.Exists(path) {
			found++
			if got := env.FS.FileSize(path); got != int64(cfg.Ranks())*cfg.BytesPerRank {
				t.Fatalf("%s size %d", path, got)
			}
		}
	}
	if found != 2 {
		t.Fatalf("image files found: %d", found)
	}
	if env.RT.EventCount() == 0 {
		t.Fatal("no instrumented events")
	}
}

func TestHACCIOMPIModes(t *testing.T) {
	for _, mode := range []string{"mpi-indep", "mpi-coll"} {
		env := testEnv(t, simfs.Lustre, 10, true)
		cfg := DefaultHACCIO(env.M.Nodes()[:2], 50_000)
		cfg.RanksPerNode = 4
		cfg.Mode = mode
		RunHACCIO(env, cfg)
		if err := env.E.Run(0); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		sum := env.RT.Finalize(env.E.Now(), cfg.Ranks())
		var mpiioOpens, mpiioWrites, mpiioReads int64
		for _, r := range sum.Records {
			if r.Module == darshan.ModMPIIO {
				mpiioOpens += r.Opens
				mpiioWrites += r.Writes
				mpiioReads += r.Reads
			}
		}
		n := int64(cfg.Ranks())
		if mpiioOpens != n || mpiioWrites != n || mpiioReads != n {
			t.Fatalf("%s: MPIIO opens=%d writes=%d reads=%d, want %d each", mode, mpiioOpens, mpiioWrites, mpiioReads, n)
		}
		want := n * cfg.BytesPerRank()
		if got := env.FS.FileSize(env.FS.Mount() + "/hacc-io-checkpoint.dat"); got != want {
			t.Fatalf("%s: size %d want %d", mode, got, want)
		}
	}
}

func TestHMMERWorkerDispatch(t *testing.T) {
	// The master must ship family batches to every worker and stop them
	// cleanly (no deadlock), with compute overlapping its I/O.
	env := testEnv(t, simfs.Lustre, 11, true)
	cfg := DefaultHMMER(env.M.Node(0), simfs.Lustre)
	cfg.Families = 1000
	cfg.Ranks = 8
	RunHMMER(env, cfg)
	if err := env.E.Run(0); err != nil {
		t.Fatal(err)
	}
	if env.E.Now() <= 0 {
		t.Fatal("no time elapsed")
	}
	// Only rank 0 performs I/O.
	sum := env.RT.Finalize(env.E.Now(), cfg.Ranks)
	for _, r := range sum.Records {
		if r.Rank != 0 {
			t.Fatalf("rank %d performed I/O (%s)", r.Rank, r.Module)
		}
	}
}

func TestHMMERSingleRankNoDeadlock(t *testing.T) {
	env := testEnv(t, simfs.NFS, 12, true)
	cfg := DefaultHMMER(env.M.Node(0), simfs.NFS)
	cfg.Families = 100
	cfg.Ranks = 1
	RunHMMER(env, cfg)
	if err := env.E.Run(0); err != nil {
		t.Fatal(err)
	}
}
