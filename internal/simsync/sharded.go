package simsync

import (
	"repro/internal/machine"
	"repro/internal/topo"
)

// shardedCounter stripes the hot-spot counter across the machine's
// locality groups, allocating each stripe in its group's home module
// (topo.Topology.GroupHome). On a flat machine every processor is its
// own group, so this is the classic per-processor striping: an
// increment is one local fetch&add — no interconnect transaction at
// all on NUMA, and no invalidation storm on a bus. On a hierarchical
// machine (topo.Cluster) the stripes land one per cluster on the
// cluster's home module: increments pay at most a cheap intra-cluster
// hop and the expensive inter-cluster links carry no counter traffic —
// the SynCron-style near-data trade (arXiv:2101.07557) expressed as
// data placement instead of a rewritten algorithm. The global value
// exists only on demand: ReadTotal combines the stripes.
//
// Inc still returns a globally unique pre-increment value by giving
// each stripe a disjoint residue class: stripe g hands out g, g+G,
// g+2G, ... for G stripes. This is a sharded ticket dispenser — unique
// but not FIFO-ordered across processors, which is exactly the
// discipline a statistics counter or work-stealing id generator needs,
// and what the central fetch&add pays a hot spot to over-deliver.
type shardedCounter struct {
	stripes []machine.Addr // one per locality group, in the group's home module
	group   []machine.Word // processor -> stripe index (host-side, fixed at build)
	groups  machine.Word
}

// NewShardedCounter builds the group-striped counter on m, one stripe
// in each group's home module.
func NewShardedCounter(m *machine.Machine) Counter {
	t := m.Topo()
	procs := m.Procs()
	groups := topo.Groups(t, procs)
	c := &shardedCounter{
		stripes: make([]machine.Addr, groups),
		group:   make([]machine.Word, procs),
		groups:  machine.Word(groups),
	}
	for g := 0; g < groups; g++ {
		c.stripes[g] = m.AllocLocal(t.GroupHome(g, procs), 1)
	}
	for p := 0; p < procs; p++ {
		c.group[p] = machine.Word(t.Group(p, procs))
	}
	return c
}

func (c *shardedCounter) Inc(p *machine.Proc) machine.Word {
	g := c.group[p.ID()]
	local := p.FetchAdd(c.stripes[g], 1)
	return local*c.groups + g
}

// ReadTotal combines the stripes into the current global count. It is a
// host-side Peek sum (the instrument reading, not a simulated
// operation); a simulated reader would pay one remote load per stripe,
// the cost the write path no longer pays.
func (c *shardedCounter) ReadTotal(m *machine.Machine) machine.Word {
	var total machine.Word
	for _, s := range c.stripes {
		total += m.Peek(s)
	}
	return total
}
