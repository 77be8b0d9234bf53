package apps

import (
	"fmt"
	"time"

	"darshanldms/internal/cluster"
	"darshanldms/internal/darshan"
	"darshanldms/internal/mpi"
)

// sw4 solves 3D seismic wave equations with mesh refinement. Its I/O
// signature: every rank reads the input grid specification at startup, the
// solver iterates compute-heavy timesteps, and the job periodically writes
// image/checkpoint volumes through collective MPI-IO sized to a fraction of
// node memory (the paper sized the grid to ~50% of available memory).

// SW4Config parameterizes an sw4 run.
type SW4Config struct {
	Nodes          []*cluster.Node
	RanksPerNode   int
	Steps          int
	ImageEvery     int           // write an image volume every N steps
	BytesPerRank   int64         // per-rank slice of the image/checkpoint
	ComputePerStep time.Duration // solver cost per step per rank
	InputFile      string
	ImageBase      string
}

// DefaultSW4 sizes the run like the paper: grid at ~50% of 64 GB/node
// memory spread over the ranks, modest step count.
func DefaultSW4(nodes []*cluster.Node) SW4Config {
	ranksPerNode := 16
	memPerNode := int64(64) << 30
	return SW4Config{
		Nodes:          nodes,
		RanksPerNode:   ranksPerNode,
		Steps:          20,
		ImageEvery:     5,
		BytesPerRank:   memPerNode / 2 / int64(ranksPerNode) / 16, // image = 1/16 of state
		ComputePerStep: 2 * time.Second,
	}
}

// Ranks returns the world size.
func (c SW4Config) Ranks() int { return len(c.Nodes) * c.RanksPerNode }

// RunSW4 spawns the sw4 ranks.
func RunSW4(env Env, cfg SW4Config) {
	if cfg.InputFile == "" {
		cfg.InputFile = env.FS.Mount() + "/sw4/berkeley.in"
	}
	if cfg.ImageBase == "" {
		cfg.ImageBase = env.FS.Mount() + "/sw4/image"
	}
	nranks := cfg.Ranks()
	launch(env, cfg.Nodes, nranks, 0, func(r *mpi.Rank, ctx *darshan.Ctx, pl darshan.PosixLayer) {
		// Startup: every rank reads the input spec (small POSIX reads).
		in := pl.Open(r.Proc(), r.ID, cfg.InputFile, false).(*darshan.PosixFile)
		in.ReadFull(r.Proc(), 0, 64<<10)
		in.Close(r.Proc())
		r.Barrier()
		img := 0
		for step := 1; step <= cfg.Steps; step++ {
			r.Compute(cfg.ComputePerStep)
			if cfg.ImageEvery > 0 && step%cfg.ImageEvery == 0 {
				name := fmt.Sprintf("%s.cycle%04d.3Dimg", cfg.ImageBase, step)
				f := darshan.OpenMPI(env.RT, r, env.FS, pl, mpi.IOConfig{}, name, true)
				f.WriteAtAll(int64(r.ID)*cfg.BytesPerRank, cfg.BytesPerRank)
				f.Close()
				img++
			}
		}
	})
}
