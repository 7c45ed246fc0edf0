package topo

import (
	"fmt"

	"repro/internal/sim"
)

// The canonical topology instances. Ideal, Bus, and NUMA reproduce the
// three historical machine models bit-for-bit (enforced by the golden
// and determinism suites in internal/simsync); Cluster is the first
// genuinely new machine: a two-level hierarchy with cheap intra-cluster
// hops and expensive inter-cluster traversals.
var (
	// Ideal has unit-latency uncontended memory. For tests.
	Ideal Topology = idealTopo{}
	// Bus is the snooping write-invalidate cache-coherent machine.
	Bus Topology = busTopo{}
	// NUMA is the flat non-coherent distributed-memory machine: every
	// off-module reference pays one uniform network traversal.
	NUMA Topology = numaTopo{}
	// Cluster is the two-level cluster-NUMA machine: processors come in
	// clusters of four; a hop inside the cluster costs a third of the
	// flat-NUMA traversal, a hop between clusters twice it.
	Cluster Topology = NewCluster("cluster", 4)
)

// flat supplies the degenerate structure shared by machines without a
// locality hierarchy: shared words interleaved across modules, and
// every processor its own group (so per-group striping degenerates to
// per-processor striping).
type flat struct{}

func (flat) MaxProcs() int                              { return 0 }
func (flat) HomeModule(w, procs int) int                { return w % procs }
func (flat) Group(p, procs int) int                     { return p }
func (flat) GroupHome(g, procs int) int                 { return g }
func (flat) PollSpacing(p, mod int, tm Timing) sim.Time { return tm.PollInterval }

// ---------------------------------------------------------------------
// ideal
// ---------------------------------------------------------------------

type idealTopo struct{ flat }

func (idealTopo) Name() string                             { return "ideal" }
func (idealTopo) String() string                           { return "ideal" }
func (idealTopo) Discipline() Discipline                   { return Uniform }
func (idealTopo) Traversal(p, mod int, tm Timing) sim.Time { return 0 }

// ---------------------------------------------------------------------
// bus
// ---------------------------------------------------------------------

type busTopo struct{ flat }

func (busTopo) Name() string           { return "bus" }
func (busTopo) String() string         { return "bus" }
func (busTopo) Discipline() Discipline { return SnoopingBus }

// MaxProcs is 64 on the bus machine: the coherence directory tracks
// sharers in one Word-wide bitmask. (The machine also enforces this
// for any future SnoopingBus topology, since the limit belongs to the
// protocol implementation; declaring it here makes the ceiling a
// topology property, visible to validation and CLIs.)
func (busTopo) MaxProcs() int { return 64 }

// The bus machine has no module traversals at all: probe
// serialization happens on the bus itself, which the machine prices
// directly.
func (busTopo) Traversal(p, mod int, tm Timing) sim.Time { return 0 }

// ---------------------------------------------------------------------
// numa
// ---------------------------------------------------------------------

type numaTopo struct{ flat }

func (numaTopo) Name() string           { return "numa" }
func (numaTopo) String() string         { return "numa" }
func (numaTopo) Discipline() Discipline { return Modules }

func (numaTopo) Traversal(p, mod int, tm Timing) sim.Time {
	if mod != p {
		return tm.RemoteMem
	}
	return 0
}

// ---------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------

// clusterTopo is the two-level cluster-NUMA machine: processors (and
// their modules) are grouped into clusters of span; intra-cluster hops
// are cheap, inter-cluster traversals expensive. This is the shape
// where data placement starts to matter: a word shared within a
// cluster wants the cluster's home module (GroupHome), not the
// toucher's own — the hierarchical near-data trade SynCron-class
// designs exploit.
type clusterTopo struct {
	name string
	span int
}

// NewCluster builds a cluster-NUMA topology with the given cluster
// span. The canonical registered instance uses span 4; other spans can
// be registered by callers for their own experiments.
func NewCluster(name string, span int) Topology {
	if span < 1 {
		panic(fmt.Sprintf("topo: cluster span %d < 1", span))
	}
	return clusterTopo{name: name, span: span}
}

func (c clusterTopo) Name() string                { return c.name }
func (c clusterTopo) String() string              { return c.name }
func (c clusterTopo) Discipline() Discipline      { return Modules }
func (c clusterTopo) MaxProcs() int               { return 0 }
func (c clusterTopo) HomeModule(w, procs int) int { return w % procs }

func (c clusterTopo) Group(p, procs int) int     { return p / c.span }
func (c clusterTopo) GroupHome(g, procs int) int { return g * c.span }

// Traversal: a module in the same cluster costs a third of the flat
// traversal (one short intra-cluster hop); crossing clusters costs
// twice it (up through the cluster switch and down into another).
func (c clusterTopo) Traversal(p, mod int, tm Timing) sim.Time {
	switch {
	case mod == p:
		return 0
	case mod/c.span == p/c.span:
		return tm.RemoteMem / 3
	default:
		return 2 * tm.RemoteMem
	}
}

// PollSpacing: polling across the cluster boundary is twice as
// expensive, so spinners space far polls twice as wide — the era's
// "poll less where it hurts more" folklore, now a topology property.
func (c clusterTopo) PollSpacing(p, mod int, tm Timing) sim.Time {
	if mod/c.span == p/c.span {
		return tm.PollInterval
	}
	return 2 * tm.PollInterval
}
