package apps

import (
	"darshanldms/internal/cluster"
	"darshanldms/internal/darshan"
	"darshanldms/internal/mpi"
)

// HACC-IO simulates the checkpoint I/O of the Hardware Accelerated
// Cosmology Code: every rank writes its particles (x,y,z,vx,vy,vz,phi,pid,
// mask = 38 bytes/particle) into a shared checkpoint file at its contiguous
// offset, then reads them back for validation.

// BytesPerParticle is HACC-IO's particle record size.
const BytesPerParticle = 38

// HACCIOConfig parameterizes a HACC-IO run (Table IIb: 16 nodes, 5M or 10M
// particles per rank, POSIX pattern, NFS vs Lustre).
type HACCIOConfig struct {
	Nodes            []*cluster.Node
	RanksPerNode     int
	ParticlesPerRank int64
	// Mode selects the I/O pattern HACC-IO simulates: "posix", "mpi-indep",
	// or "mpi-coll".
	Mode     string
	FileName string
}

// DefaultHACCIO returns the paper's configuration.
func DefaultHACCIO(nodes []*cluster.Node, particlesPerRank int64) HACCIOConfig {
	return HACCIOConfig{
		Nodes:            nodes,
		RanksPerNode:     16,
		ParticlesPerRank: particlesPerRank,
		Mode:             "posix",
	}
}

// Ranks returns the world size.
func (c HACCIOConfig) Ranks() int { return len(c.Nodes) * c.RanksPerNode }

// BytesPerRank returns each rank's checkpoint footprint.
func (c HACCIOConfig) BytesPerRank() int64 { return c.ParticlesPerRank * BytesPerParticle }

// RunHACCIO spawns the HACC-IO ranks: checkpoint write phase, barrier,
// read-back validation phase.
func RunHACCIO(env Env, cfg HACCIOConfig) {
	if cfg.FileName == "" {
		cfg.FileName = env.FS.Mount() + "/hacc-io-checkpoint.dat"
	}
	perRank := cfg.BytesPerRank()
	launch(env, cfg.Nodes, cfg.Ranks(), 0, func(r *mpi.Rank, ctx *darshan.Ctx, pl darshan.PosixLayer) {
		offset := int64(r.ID) * perRank
		switch cfg.Mode {
		case "mpi-indep", "mpi-coll":
			f := darshan.OpenMPI(env.RT, r, env.FS, pl, mpi.IOConfig{}, cfg.FileName, true)
			if cfg.Mode == "mpi-coll" {
				f.WriteAtAll(offset, perRank)
				r.Barrier()
				f.ReadAtAll(offset, perRank)
			} else {
				f.WriteAt(offset, perRank)
				r.Barrier()
				f.ReadAt(offset, perRank)
			}
			f.Close()
		default: // posix
			// Checkpoint write: one open/write/close per rank.
			f := pl.Open(r.Proc(), r.ID, cfg.FileName, true).(*darshan.PosixFile)
			f.WriteFull(r.Proc(), offset, perRank)
			f.Close(r.Proc())
			r.Barrier()
			// Validation read-back.
			g := pl.Open(r.Proc(), r.ID, cfg.FileName, false).(*darshan.PosixFile)
			g.ReadFull(r.Proc(), offset, perRank)
			g.Close(r.Proc())
		}
	})
}
