package apps

import (
	"time"

	"darshanldms/internal/cluster"
	"darshanldms/internal/darshan"
	"darshanldms/internal/mpi"
	"darshanldms/internal/simfs"
)

// HMMER's hmmbuild concatenates profile HMMs built from the Pfam-A.seed
// Stockholm alignment file into the Pfam-A.hmm database. Its I/O signature
// is millions of tiny buffered STDIO calls: the master rank reads alignment
// blocks family by family and writes each finished profile, while worker
// ranks compute. This is the paper's pathological case for the connector —
// 3-4.5M I/O events in a few-minute run.

// PfamASeedFamilies is the approximate family count of the Pfam-A.seed
// release the paper used.
const PfamASeedFamilies = 19632

// HMMERConfig parameterizes an hmmbuild run (Table IIc: 1 node, 32 ranks).
type HMMERConfig struct {
	Node     *cluster.Node
	Ranks    int
	Families int
	// ReadsPerFamily and WritesPerFamily set the small-op volume per
	// family. The defaults depend on the file system: direct-I/O-ish
	// behaviour on Lustre yields more, smaller reads than NFS's 32 KiB
	// rsize buffering, matching the paper's higher Lustre message count
	// (4.46M vs 3.12M).
	ReadsPerFamily  int
	WritesPerFamily int
	// ComputePerFamily is the HMM construction cost, spread over workers.
	ComputePerFamily time.Duration
	SeedFile         string
	OutFile          string
}

// DefaultHMMER returns the paper's configuration for the given file-system
// kind.
func DefaultHMMER(node *cluster.Node, kind simfs.Kind) HMMERConfig {
	cfg := HMMERConfig{
		Node:             node,
		Ranks:            32,
		Families:         PfamASeedFamilies,
		WritesPerFamily:  100,
		ComputePerFamily: 2 * time.Millisecond,
	}
	if kind == simfs.Lustre {
		cfg.ReadsPerFamily = 120
	} else {
		cfg.ReadsPerFamily = 55
	}
	return cfg
}

// RunHMMER spawns the hmmbuild job: rank 0 performs all the I/O
// (macro-stepped STDIO), other ranks compute profile construction.
func RunHMMER(env Env, cfg HMMERConfig) {
	if cfg.SeedFile == "" {
		cfg.SeedFile = env.FS.Mount() + "/pfam/Pfam-A.seed"
	}
	if cfg.OutFile == "" {
		cfg.OutFile = env.FS.Mount() + "/pfam/Pfam-A.hmm"
	}
	// hmmbuild --mpi is master/worker: rank 0 reads alignments and writes
	// the database (all the I/O), shipping family batches to workers for
	// HMM construction over point-to-point messages.
	const famTag = 1
	const batch = 64
	nodes := []*cluster.Node{cfg.Node}
	launch(env, nodes, cfg.Ranks, 200*time.Millisecond, func(r *mpi.Rank, ctx *darshan.Ctx, pl darshan.PosixLayer) {
		if r.ID != 0 {
			// Worker: receive family batches until the stop marker, compute.
			for {
				n := r.Recv(0, famTag).(int)
				if n == 0 {
					break
				}
				r.Compute(time.Duration(n) * cfg.ComputePerFamily)
			}
			r.Barrier()
			return
		}
		// Master: stream the seed file, dispatch batches, write the database.
		in := darshan.OpenStdio(env.RT, env.FS, ctx, cfg.SeedFile)
		out := darshan.OpenStdio(env.RT, env.FS, ctx, cfg.OutFile)
		worker := 1
		pending := 0
		for fam := 0; fam < cfg.Families; fam++ {
			// Read the family's alignment block line by line.
			for i := 0; i < cfg.ReadsPerFamily; i++ {
				in.Read(96) // typical Stockholm line
			}
			pending++
			if pending == batch && cfg.Ranks > 1 {
				ctx.VClock().Flush()
				r.Send(worker, famTag, int64(pending)*4<<10, pending)
				worker = worker%(cfg.Ranks-1) + 1
				pending = 0
			}
			// Write the finished profile HMM.
			for i := 0; i < cfg.WritesPerFamily; i++ {
				out.Write(72) // typical HMM text line
			}
			if fam%4096 == 4095 {
				out.Flush()
			}
		}
		out.Flush()
		in.Close()
		out.Close()
		ctx.VClock().Flush()
		if cfg.Ranks > 1 {
			if pending > 0 {
				r.Send(worker, famTag, int64(pending)*4<<10, pending)
			}
			for w := 1; w < cfg.Ranks; w++ {
				r.Send(w, famTag, 16, 0) // stop marker
			}
		}
		r.Barrier()
	})
}
