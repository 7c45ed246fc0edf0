// Package topo describes the shape of a simulated machine's memory
// system: which module a word calls home, how processors group into
// clusters, what a hop between a processor and a module costs, and how
// remote spinning is polled. Every topology keeps one memory module per
// processor (module i is attached to processor i) and varies distance
// instead, so its discipline alone decides what counts as a remote
// reference (any access off the processor's own module, under Modules)
// and which interconnect metric its experiments headline
// (Discipline.Unit). internal/machine consumes a Topology instead of
// switching on a machine-model enum, so new memory systems —
// hierarchical cluster machines, near-data topologies, asymmetric
// interconnects — are one Register call away from every sweep, CLI
// flag, and benchmark, exactly like algorithms are.
//
// Two invariants govern the package:
//
//   - The canonical Bus and NUMA instances must be bit-identical to the
//     historical hardcoded models: same cycle counts, traffic counters,
//     event sequencing, and spin-window decisions. The golden and
//     determinism suites in internal/simsync enforce this.
//   - A Topology only *describes* shape and cost; all mechanism
//     (coherence protocol, port occupancy, event scheduling) stays in
//     internal/machine. That keeps every topology automatically exact
//     under the engine's inline fast path and window batching rules.
package topo

import (
	"repro/internal/registry"
	"repro/internal/sim"
)

// Discipline is the memory-access protocol a topology runs under.
// There are exactly three in the simulator: the mechanism of an access
// is protocol business (internal/machine), while everything a topology
// can compose — distances, groupings, homes, poll spacing — varies
// freely within a discipline.
type Discipline uint8

const (
	// Uniform is unit-latency uncontended memory, for unit tests.
	Uniform Discipline = iota
	// SnoopingBus is the write-invalidate cache-coherent protocol over
	// one serializing bus (Sequent Symmetry class).
	SnoopingBus
	// Modules is the non-coherent distributed-memory protocol:
	// per-module ports, distance-priced traversals, polled remote
	// spinning (BBN Butterfly class and its hierarchical descendants).
	Modules
)

// Unit is the per-operation label of the discipline's headline
// interconnect metric, the count Stats.TrafficFor returns: bus
// transactions on the coherent bus, remote references on module
// machines, and every memory operation on uniform memory.
func (d Discipline) Unit() string {
	switch d {
	case SnoopingBus:
		return "bus txns"
	case Modules:
		return "remote refs"
	}
	return "ops"
}

// Timing carries the machine's timing parameters into the topology's
// cost methods. Topologies price hops relative to these knobs (rather
// than holding absolute numbers) so parameter-sensitivity sweeps like
// A1, which varies RemoteMem, stay meaningful on every topology.
type Timing struct {
	RemoteMem    sim.Time // reference network traversal for remote refs
	PollInterval sim.Time // base spacing between remote spin polls
}

// Topology is the shape of one memory system. Implementations must be
// stateless comparable values: a Topology is used as a configuration
// key (pooled machines compare it on Reset) and shared by concurrent
// sweeps, and its prices cannot change mid-run (cross-processor spin
// windows in internal/machine rely on that).
type Topology interface {
	// Name is the registry key and table label ("bus", "numa", ...).
	Name() string
	// Discipline selects the access protocol internal/machine runs.
	Discipline() Discipline
	// MaxProcs is the topology's processor ceiling; 0 means only the
	// simulator-wide cap applies.
	MaxProcs() int
	// HomeModule maps shared-heap word index w to its home module
	// (local regions always live with their owning processor).
	HomeModule(w, procs int) int
	// Group is the locality group (cluster) of processor p. Flat
	// topologies make every processor its own group, so data striped
	// per group degenerates to per-processor striping on them.
	Group(p, procs int) int
	// GroupHome is the canonical home module of group g — where
	// group-shared words are placed.
	GroupHome(g, procs int) int
	// Traversal prices the network hops processor p pays to reach
	// module mod, in cycles, on top of the module's service time.
	// Zero means the access is module-local.
	Traversal(p, mod int, tm Timing) sim.Time
	// PollSpacing is the base interval between successive polls when p
	// spins on a remote word homed at mod (jitter is added by the
	// machine on top).
	PollSpacing(p, mod int, tm Timing) sim.Time
}

// Groups returns the number of locality groups of a procs-processor
// machine under t.
func Groups(t Topology, procs int) int {
	max := 0
	for p := 0; p < procs; p++ {
		if g := t.Group(p, procs); g > max {
			max = g
		}
	}
	return max + 1
}

// Registry is the topology registry: selectable in sweeps and CLIs
// exactly like algorithm families. Canonical instances register at
// init; new topologies add one Register call.
var Registry = registry.NewSet[Topology]("topologies", Topology.Name)

// ByName resolves a registered topology.
func ByName(name string) (Topology, bool) { return Registry.ByName(name) }

// Names lists registered topology names in canonical order.
func Names() []string { return Registry.Names() }

func init() {
	Registry.Register(Ideal, Bus, NUMA, Cluster)
}
