// Package mpi is a simulated MPI runtime: ranks run as simulation processes
// placed on cluster nodes, with point-to-point messaging, the collectives
// the workloads need (Barrier, Allgather), and an
// MPI-IO file layer offering independent and collective (two-phase) I/O.
//
// The MPI-IO layer performs its file accesses through a pluggable POSIX
// layer, which is where the Darshan instrumentation interposes — mirroring
// how the real Darshan wraps both the MPI-IO and POSIX layers of an
// application.
package mpi

import (
	"fmt"
	"time"

	"darshanldms/internal/cluster"
	"darshanldms/internal/sim"
)

// World is the set of ranks of one job (MPI_COMM_WORLD).
type World struct {
	e         *sim.Engine
	machine   *cluster.Machine
	placement *cluster.RankPlacement
	size      int
	barrier   *sim.Barrier
	colls     map[int]*collOp
	mailboxes map[mbKey]*sim.Mailbox
	done      *sim.WaitGroup
	failed    error
}

type mbKey struct {
	src, dst, tag int
}

// Rank is one MPI process.
type Rank struct {
	ID   int
	w    *World
	p    *sim.Proc
	node *cluster.Node
	seq  int // collective sequence number (must match across ranks)
}

// NewWorld creates a world of size ranks block-placed on the given nodes.
func NewWorld(e *sim.Engine, m *cluster.Machine, nodes []*cluster.Node, size int) *World {
	return &World{
		e:         e,
		machine:   m,
		placement: cluster.Place(nodes, size),
		size:      size,
		barrier:   sim.NewBarrier(e, "mpi-world", size),
		colls:     map[int]*collOp{},
		mailboxes: map[mbKey]*sim.Mailbox{},
		done:      sim.NewWaitGroup(e),
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Machine returns the underlying cluster.
func (w *World) Machine() *cluster.Machine { return w.machine }

// NodeOf returns the node hosting rank id.
func (w *World) NodeOf(id int) *cluster.Node { return w.placement.NodeOf(id) }

// Launch starts all ranks, each executing body. It returns immediately; run
// the engine to completion to execute the job.
func (w *World) Launch(body func(*Rank)) {
	w.done.Add(w.size)
	for i := 0; i < w.size; i++ {
		i := i
		w.e.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) {
			defer w.done.Done()
			r := &Rank{ID: i, w: w, p: p, node: w.placement.NodeOf(i)}
			body(r)
		})
	}
}

// Proc returns the simulation process backing this rank.
func (r *Rank) Proc() *sim.Proc { return r.p }

// Node returns the node hosting this rank.
func (r *Rank) Node() *cluster.Node { return r.node }

// World returns the rank's world.
func (r *Rank) World() *World { return r.w }

// Now returns the current virtual time.
func (r *Rank) Now() time.Duration { return r.p.Now() }

// Barrier blocks until every rank has reached it, plus a small
// log(P)-shaped synchronization cost.
func (r *Rank) Barrier() {
	r.w.barrier.Wait(r.p)
	r.p.Sleep(r.collectiveLatency(0))
}

// collectiveLatency models the alpha * log2(P) + bytes/bw cost of a tree
// collective on the interconnect.
func (r *Rank) collectiveLatency(bytes int64) time.Duration {
	logp := 0
	for n := r.w.size; n > 1; n >>= 1 {
		logp++
	}
	alpha := 3 * time.Microsecond
	beta := float64(bytes) / r.w.machine.Config().NICBandwidth
	return time.Duration(logp)*alpha + time.Duration(beta*float64(time.Second))
}

// collOp tracks one in-flight collective operation.
type collOp struct {
	barrier  *sim.Barrier
	arrived  int
	contribs []any
	result   any
}

// coll retrieves or creates the collective state for this rank's next
// collective call. Every rank must invoke collectives in the same order —
// as MPI requires — or the simulation deadlocks (and reports it).
func (r *Rank) coll() *collOp {
	seq := r.seq
	r.seq++
	op, ok := r.w.colls[seq]
	if !ok {
		op = &collOp{
			barrier:  sim.NewBarrier(r.w.e, fmt.Sprintf("coll%d", seq), r.w.size),
			contribs: make([]any, r.w.size),
		}
		r.w.colls[seq] = op
	}
	op.arrived++
	if op.arrived == r.w.size {
		delete(r.w.colls, seq) // last participant: reclaim
	}
	return op
}

// Allgather collects every rank's contribution at every rank.
func (r *Rank) Allgather(value any) []any {
	c := r.coll()
	c.contribs[r.ID] = value
	c.barrier.Wait(r.p)
	r.p.Sleep(r.collectiveLatency(256))
	out := make([]any, len(c.contribs))
	copy(out, c.contribs)
	return out
}

func (w *World) mailbox(src, dst, tag int) *sim.Mailbox {
	k := mbKey{src, dst, tag}
	mb, ok := w.mailboxes[k]
	if !ok {
		mb = sim.NewMailbox(w.e, fmt.Sprintf("p2p %d->%d tag%d", src, dst, tag))
		w.mailboxes[k] = mb
	}
	return mb
}

// Send transmits bytes of payload to rank dst with the given tag, blocking
// for the injection/serialization time (an eager-protocol model).
func (r *Rank) Send(dst, tag int, bytes int64, payload any) {
	d := r.w.machine.Transfer(r.p, r.node, r.w.placement.NodeOf(dst), bytes)
	_ = d
	r.w.mailbox(r.ID, dst, tag).Send(payload)
}

// Recv blocks until a message with the given source and tag arrives and
// returns its payload.
func (r *Rank) Recv(src, tag int) any {
	return r.w.mailbox(src, r.ID, tag).Recv(r.p)
}

// Compute charges d of CPU time on the rank's node (queueing if the node is
// oversubscribed).
func (r *Rank) Compute(d time.Duration) {
	r.node.Compute(r.p, d)
}
