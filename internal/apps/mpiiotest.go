package apps

import (
	"darshanldms/internal/cluster"
	"darshanldms/internal/darshan"
	"darshanldms/internal/mpi"
)

// MPIIOTestConfig parameterizes the Darshan MPI-IO-TEST benchmark run
// (Table IIa: 22 nodes, 16 MiB blocks, 10 iterations, collective vs
// independent, NFS vs Lustre).
type MPIIOTestConfig struct {
	Nodes        []*cluster.Node
	RanksPerNode int
	BlockSize    int64
	Iterations   int
	Collective   bool
	// ReadBackIterations is how many iterations' worth of data the
	// validation phase reads back at the end (mpi-io-test's -C check reads
	// a subset; Figs 8/9 show the read phase at ~20% of the written bytes).
	ReadBackIterations int
	// FileName overrides the output file (default <mount>/mpi-io-test.dat).
	FileName string
}

// DefaultMPIIOTest returns the paper's Table IIa configuration on the given
// nodes.
func DefaultMPIIOTest(nodes []*cluster.Node, collective bool) MPIIOTestConfig {
	return MPIIOTestConfig{
		Nodes:              nodes,
		RanksPerNode:       16,
		BlockSize:          16 * 1024 * 1024,
		Iterations:         10,
		Collective:         collective,
		ReadBackIterations: 2,
	}
}

// Ranks returns the world size.
func (c MPIIOTestConfig) Ranks() int { return len(c.Nodes) * c.RanksPerNode }

// RunMPIIOTest spawns the benchmark's ranks. Each rank writes one block per
// iteration at its rank-strided offset (all ranks to one shared file),
// then the validation phase reads part of the file back; collective mode
// uses MPI_File_write_at_all / read_at_all.
func RunMPIIOTest(env Env, cfg MPIIOTestConfig) {
	if cfg.FileName == "" {
		cfg.FileName = env.FS.Mount() + "/mpi-io-test.out.dat"
	}
	nranks := cfg.Ranks()
	launch(env, cfg.Nodes, nranks, 0, func(r *mpi.Rank, ctx *darshan.Ctx, pl darshan.PosixLayer) {
		f := darshan.OpenMPI(env.RT, r, env.FS, pl, mpi.IOConfig{}, cfg.FileName, true)
		stride := int64(nranks) * cfg.BlockSize
		for iter := 0; iter < cfg.Iterations; iter++ {
			offset := int64(iter)*stride + int64(r.ID)*cfg.BlockSize
			if cfg.Collective {
				f.WriteAtAll(offset, cfg.BlockSize)
			} else {
				f.WriteAt(offset, cfg.BlockSize)
				r.Barrier() // iteration sync between phases
			}
		}
		r.Barrier()
		// Validation read-back of the first ReadBackIterations iterations.
		for iter := 0; iter < cfg.ReadBackIterations && iter < cfg.Iterations; iter++ {
			offset := int64(iter)*stride + int64(r.ID)*cfg.BlockSize
			if cfg.Collective {
				f.ReadAtAll(offset, cfg.BlockSize)
			} else {
				f.ReadAt(offset, cfg.BlockSize)
			}
		}
		f.Close()
	})
}
