package dsos

import "darshanldms/internal/sos"

// Placement is the strategy a cluster places objects by. It answers only
// what differs between strategies; the insert loop, the fan-out query and
// merge, origin allocation, read repair and the health probe are the
// client's and are shared. There are two implementations: successive
// round-robin (this package, the default) and the consistent-hash ring
// (internal/topo, which swaps in a new immutable placement on every
// membership change).
type Placement interface {
	// Members is the query fan-out set, in merge tie-break order. Counts,
	// telemetry and the health probe walk the same set.
	Members() []*Daemon
	// Owners returns the daemons the seq-th object of the cluster's insert
	// sequence is written to, which the ack rule is judged over. The slice
	// belongs to the placement; callers must not modify it.
	Owners(schema string, obj sos.Object, seq uint64) []*Daemon
	// Groups lists every owner group Owners can return as ack. Data is
	// hidden from a query only while every member of some group is down.
	Groups() [][]*Daemon
	// Rules returns the strategy's write and read rules.
	Rules() Rules
}

// Rules are the write and read rules of a placement strategy.
type Rules struct {
	// AckAll acks an insert only when every ack daemon stored it, and
	// admits a batch only when every ack daemon of every object is up — so
	// a refused batch leaves no partial copies for a redelivery to
	// duplicate. Otherwise one stored replica acks, and a failed object
	// does not stop the rest of the batch.
	AckAll bool
	// Stamp gives every object a cluster-wide origin id, which queries
	// dedup replicas by. Unstamped objects carry origin 0.
	Stamp bool
	// Repair lets a query copy an object it saw on fewer daemons than the
	// group size onto healthy members that lack it.
	Repair bool
}

// successive is round-robin placement over R successive daemons: object
// seq goes to members seq, seq+1, ..., seq+R-1 (mod n).
type successive struct {
	members []*Daemon
	groups  [][]*Daemon // groups[s] = the R members starting at s
}

func newSuccessive(members []*Daemon, repl int) *successive {
	n := len(members)
	if repl < 1 {
		repl = 1
	}
	if repl > n {
		repl = n
	}
	p := &successive{members: members, groups: make([][]*Daemon, n)}
	backing := make([]*Daemon, 0, n*repl)
	for s := 0; s < n; s++ {
		for i := 0; i < repl; i++ {
			backing = append(backing, members[(s+i)%n])
		}
		p.groups[s] = backing[s*repl : (s+1)*repl : (s+1)*repl]
	}
	return p
}

func (p *successive) Members() []*Daemon  { return p.members }
func (p *successive) Groups() [][]*Daemon { return p.groups }

func (p *successive) Owners(_ string, _ sos.Object, seq uint64) []*Daemon {
	return p.groups[seq%uint64(len(p.groups))]
}

// Rules: any replica acks; origins, and with them dedup and read repair,
// exist only under replication (R=1 writes origin 0, the unreplicated
// record format).
func (p *successive) Rules() Rules {
	replicated := len(p.groups[0]) > 1
	return Rules{Stamp: replicated, Repair: replicated}
}
