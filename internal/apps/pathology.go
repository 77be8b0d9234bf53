package apps

import (
	"fmt"

	"darshanldms/internal/cluster"
	"darshanldms/internal/darshan"
	"darshanldms/internal/mpi"
)

// Pathological workload generators for the scenario engine: I/O patterns
// the paper's three applications never exhibit but production machines do
// (LASSi arXiv:1906.03884 catalogues them as the contention classes that
// matter). A metadata storm is pure open/tiny-write/close churn — per-op
// monitoring cost dominates payload; the small-file pattern adds the
// read-back half of a build-system or ML-dataloader job.

// MetaStormConfig parameterizes a metadata storm.
type MetaStormConfig struct {
	Nodes        []*cluster.Node
	RanksPerNode int
	// FilesPerRank files are created, each with one FileBytes write.
	FilesPerRank int
	FileBytes    int64
	// Dir is the directory the per-rank files land in (default the file
	// system mount). Distinct jobs must pass distinct dirs.
	Dir string
}

// Ranks returns the world size.
func (c MetaStormConfig) Ranks() int { return len(c.Nodes) * c.RanksPerNode }

// RunMetaStorm spawns ranks that each churn through FilesPerRank
// open/write/close cycles on private tiny files: three instrumented
// events per file and almost no payload.
func RunMetaStorm(env Env, cfg MetaStormConfig) {
	dir := cfg.Dir
	if dir == "" {
		dir = env.FS.Mount()
	}
	launch(env, cfg.Nodes, cfg.Ranks(), 0, func(r *mpi.Rank, ctx *darshan.Ctx, pl darshan.PosixLayer) {
		for i := 0; i < cfg.FilesPerRank; i++ {
			path := fmt.Sprintf("%s/meta-r%d-f%d.dat", dir, r.ID, i)
			f := pl.Open(r.Proc(), r.ID, path, true).(*darshan.PosixFile)
			f.WriteFull(r.Proc(), 0, cfg.FileBytes)
			f.Close(r.Proc())
		}
	})
}

// SmallFilesConfig parameterizes the small-file pathology.
type SmallFilesConfig struct {
	Nodes        []*cluster.Node
	RanksPerNode int
	FilesPerRank int
	FileBytes    int64
	Dir          string
}

// Ranks returns the world size.
func (c SmallFilesConfig) Ranks() int { return len(c.Nodes) * c.RanksPerNode }

// RunSmallFiles spawns ranks that write FilesPerRank small private files,
// barrier, then read every one back — the write-then-consume shape of a
// staging or dataloader job, with a per-file open on both sides.
func RunSmallFiles(env Env, cfg SmallFilesConfig) {
	dir := cfg.Dir
	if dir == "" {
		dir = env.FS.Mount()
	}
	launch(env, cfg.Nodes, cfg.Ranks(), 0, func(r *mpi.Rank, ctx *darshan.Ctx, pl darshan.PosixLayer) {
		for i := 0; i < cfg.FilesPerRank; i++ {
			path := fmt.Sprintf("%s/small-r%d-f%d.dat", dir, r.ID, i)
			f := pl.Open(r.Proc(), r.ID, path, true).(*darshan.PosixFile)
			f.WriteFull(r.Proc(), 0, cfg.FileBytes)
			f.Close(r.Proc())
		}
		r.Barrier()
		for i := 0; i < cfg.FilesPerRank; i++ {
			path := fmt.Sprintf("%s/small-r%d-f%d.dat", dir, r.ID, i)
			f := pl.Open(r.Proc(), r.ID, path, false).(*darshan.PosixFile)
			f.ReadFull(r.Proc(), 0, cfg.FileBytes)
			f.Close(r.Proc())
		}
	})
}
