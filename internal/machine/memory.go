package machine

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// accessKind classifies a memory operation for the timing model.
type accessKind int

const (
	accRead accessKind = iota
	accWrite
	accRMW // read-modify-write: write semantics plus a returned value
)

// access computes the latency of an operation by processor p on address a
// and updates coherence state, interconnect occupancy, and traffic
// counters. The caller applies the data mutation immediately (engine
// event order equals interconnect arbitration order, so issue-order
// application yields a sequentially consistent memory). The mechanism
// is selected by the topology's discipline; the topology prices the
// distances inside it.
func (m *Machine) access(p *Proc, a Addr, k accessKind) sim.Time {
	if int(a) < 0 || int(a) >= len(m.mem) {
		panic("machine: address out of range")
	}
	switch m.disc {
	case topo.SnoopingBus:
		return m.accessBus(p, a, k)
	case topo.Modules:
		return m.accessModules(p, a, k)
	default:
		return 1 // uniform memory: unit latency, no contention
	}
}

// accessBus models a snooping write-invalidate protocol over a single
// shared bus. Coherence granularity is one word (the model has no false
// sharing; algorithms that need padding on real machines simply get it
// for free here, which is the era-standard "padded to a cache line"
// assumption).
func (m *Machine) accessBus(p *Proc, a Addr, k accessKind) sim.Time {
	bit := uint64(1) << uint(p.id)
	switch k {
	case accRead:
		if m.sharers[a]&bit != 0 {
			return cacheHit // hit: shared or exclusive copy present
		}
		lat := m.busTransaction(p)
		// Read miss: any exclusive owner is downgraded to shared; the
		// requester joins the sharer set. Owners are stored as processor
		// index + 1 so a zeroed array means "no exclusive owner".
		m.owner[a] = 0
		m.sharers[a] |= bit
		return lat
	default: // accWrite, accRMW
		if m.owner[a] == int16(p.id)+1 {
			return cacheHit // already exclusive: write hit
		}
		lat := m.busTransaction(p)
		// Invalidate all other copies; requester becomes exclusive owner.
		m.sharers[a] = bit
		m.owner[a] = int16(p.id) + 1
		return lat
	}
}

// busTransaction serializes on the single bus and charges one
// transaction to processor p. Occupancy is computed against the
// processor's local clock, which may run ahead of the engine clock on
// the inline fast path.
func (m *Machine) busTransaction(p *Proc) sim.Time {
	now := p.localNow
	start := now
	if m.busFreeAt > start {
		start = m.busFreeAt
	}
	m.busFreeAt = start + m.cfg.BusLatency
	p.stats.BusTxns++
	m.stats.BusTxns++
	return (start - now) + m.cfg.BusLatency
}

// accessModules models per-module memory ports and distance-priced
// network traversal for off-module references. An access occupies the
// target module's port for its full service time — localMem cycles
// plus whatever traversal the topology charges for the hop (the module
// and its switch path are busy for the whole transaction on a
// Butterfly-class machine, near or far). This occupancy is what makes
// hot-spot modules saturate: a word hammered by P processors serves at
// most one request per service time, and the queue in front of it
// grows with P. On a hierarchical topology the same mechanism prices
// intra-cluster sharing cheaply and cross-cluster hot spots dearly.
func (m *Machine) accessModules(p *Proc, a Addr, _ accessKind) sim.Time {
	mod := m.home(a)
	now := p.localNow
	start := now
	if m.modFreeAt[mod] > start {
		start = m.modFreeAt[mod]
	}
	trav := m.topo.Traversal(p.id, mod, m.tm)
	if m.flt != nil {
		// A degraded module's network path is slower: scale the
		// traversal term (not the local-memory term) by the factor
		// active at issue time. Issue-time pricing matches the
		// occupancy model — the request enters the degraded network
		// when it is issued.
		if f := m.flt.degradeFactor(mod, now); f > 1 {
			trav *= sim.Time(f)
		}
	}
	service := localMem + trav
	// Every access off p's own module is a remote reference, however
	// near (an intra-cluster hop counts too).
	if mod != p.id {
		p.stats.RemoteRefs++
		m.stats.RemoteRefs++
	}
	m.modFreeAt[mod] = start + service
	return (start - now) + service
}
