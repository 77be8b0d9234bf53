// Package cluster models the evaluation machine: a set of diskless compute
// nodes (the paper's Voltrino Cray XC40: 24 nodes, dual 16-core Haswell,
// Aries interconnect) plus a head node. Nodes expose a CPU resource — used
// to charge the connector's JSON-formatting cost against compute capacity —
// and the machine provides a simple interconnect timing model for LDMS
// transport latency.
package cluster

import (
	"fmt"
	"time"

	"darshanldms/internal/sim"
)

// Config describes a machine.
type Config struct {
	Nodes        int           // number of compute nodes
	CoresPerNode int           // schedulable cores per node
	NodePrefix   string        // node name prefix, e.g. "nid000" -> nid00046
	NICLatency   time.Duration // one-way small-message latency
	NICBandwidth float64       // per-node NIC bandwidth, bytes/second
	HeadNodeName string        // name of the head/service node
}

// Voltrino returns the configuration of the paper's evaluation system:
// 24 diskless nodes, dual Intel Xeon E5-2698 v3 (16 cores x 2 sockets),
// Cray Aries DragonFly interconnect.
func Voltrino() Config {
	return Config{
		Nodes:        24,
		CoresPerNode: 32,
		NodePrefix:   "nid",
		NICLatency:   2 * time.Microsecond,
		NICBandwidth: 8 << 30, // ~8 GiB/s Aries per-node injection
		HeadNodeName: "voltrino-login",
	}
}

// Machine is an instantiated cluster bound to a simulation engine.
type Machine struct {
	cfg   Config
	e     *sim.Engine
	nodes []*Node
	head  *Node
}

// Node is one compute node.
type Node struct {
	Name  string
	Index int
	CPU   *sim.Resource // capacity = cores
	nic   *sim.Resource // serialization point for NIC injection
	m     *Machine
}

// New builds a machine on the given engine.
func New(e *sim.Engine, cfg Config) *Machine {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		panic("cluster: invalid config")
	}
	m := &Machine{cfg: cfg, e: e}
	m.nodes = make([]*Node, cfg.Nodes)
	for i := range m.nodes {
		name := fmt.Sprintf("%s%05d", cfg.NodePrefix, i+40) // nid00040, nid00041, ...
		m.nodes[i] = &Node{
			Name:  name,
			Index: i,
			CPU:   sim.NewResource(e, name+"/cpu", cfg.CoresPerNode),
			nic:   sim.NewResource(e, name+"/nic", 1),
			m:     m,
		}
	}
	m.head = &Node{
		Name:  cfg.HeadNodeName,
		Index: -1,
		CPU:   sim.NewResource(e, cfg.HeadNodeName+"/cpu", cfg.CoresPerNode),
		nic:   sim.NewResource(e, cfg.HeadNodeName+"/nic", 1),
		m:     m,
	}
	return m
}

// Engine returns the simulation engine.
func (m *Machine) Engine() *sim.Engine { return m.e }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Nodes returns all compute nodes.
func (m *Machine) Nodes() []*Node { return m.nodes }

// Node returns compute node i.
func (m *Machine) Node(i int) *Node { return m.nodes[i] }

// Head returns the head/service node.
func (m *Machine) Head() *Node { return m.head }

// Compute occupies one core of the node for d of virtual time. When more
// processes than cores compute simultaneously the excess queues, modelling
// oversubscription.
func (n *Node) Compute(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	n.CPU.Use(p, 1, d)
}

// NetDelay returns the modelled one-way delay for a message of the given
// size between two nodes (latency plus serialization at the sender NIC).
// Intra-node delivery is effectively free.
func (m *Machine) NetDelay(from, to *Node, bytes int64) time.Duration {
	if from == to {
		return 500 * time.Nanosecond
	}
	ser := time.Duration(float64(bytes) / m.cfg.NICBandwidth * float64(time.Second))
	return m.cfg.NICLatency + ser
}

// Transfer blocks p while a message of the given size is injected at the
// sender's NIC and delivered to the destination. It returns the total
// transfer duration.
func (m *Machine) Transfer(p *sim.Proc, from, to *Node, bytes int64) time.Duration {
	d := m.NetDelay(from, to, bytes)
	if from != to {
		from.nic.Use(p, 1, d)
	} else {
		p.Sleep(d)
	}
	return d
}

// RankPlacement maps ranks onto nodes round-robin in blocks, the way ALPS/
// slurm place ranks by default: ranks 0..k-1 on node 0, k..2k-1 on node 1...
type RankPlacement struct {
	ranksPerNode int
	nodes        []*Node
}

// Place distributes nranks over the given nodes with block placement.
func Place(nodes []*Node, nranks int) *RankPlacement {
	if len(nodes) == 0 || nranks <= 0 {
		panic("cluster: invalid placement")
	}
	rpn := (nranks + len(nodes) - 1) / len(nodes)
	return &RankPlacement{ranksPerNode: rpn, nodes: nodes}
}

// NodeOf returns the node hosting the given rank.
func (rp *RankPlacement) NodeOf(rank int) *Node {
	idx := rank / rp.ranksPerNode
	if idx >= len(rp.nodes) {
		idx = len(rp.nodes) - 1
	}
	return rp.nodes[idx]
}

// RanksPerNode returns the block size of the placement.
func (rp *RankPlacement) RanksPerNode() int { return rp.ranksPerNode }
