package simsync

import (
	"repro/internal/machine"
)

// Barrier is a simulated barrier. Wait returns when all processors have
// arrived at the same episode. Barriers are reusable across episodes.
type Barrier interface {
	Wait(p *machine.Proc)
}

// BarrierMaker constructs a barrier for all processors of a machine.
type BarrierMaker func(m *machine.Machine) Barrier

// BarrierInfo describes one barrier algorithm for registries and sweeps.
type BarrierInfo struct {
	Name string
	Make BarrierMaker
}

// ---------------------------------------------------------------------
// central sense-reversing barrier
// ---------------------------------------------------------------------

// centralBarrier is the textbook counter barrier: everyone increments a
// shared counter, the last arriver flips a shared sense flag. All
// waiters spin on the one flag, so release is a P-wide invalidation
// burst on a bus and a hot-spot module on NUMA.
type centralBarrier struct {
	count      machine.Addr
	sense      machine.Addr
	procs      machine.Word
	localSense []machine.Word // host-side, indexed by processor
}

// NewCentralBarrier builds a central sense-reversing barrier.
func NewCentralBarrier(m *machine.Machine) Barrier {
	return &centralBarrier{
		count:      m.AllocShared(1),
		sense:      m.AllocShared(1),
		procs:      machine.Word(m.Procs()),
		localSense: make([]machine.Word, m.Procs()),
	}
}

func (b *centralBarrier) Wait(p *machine.Proc) {
	ls := 1 - b.localSense[p.ID()]
	b.localSense[p.ID()] = ls
	pos := p.FetchAdd(b.count, 1)
	if pos == b.procs-1 {
		p.Store(b.count, 0)
		p.Store(b.sense, ls)
	} else {
		p.SpinUntilEq(b.sense, ls)
	}
}

// ---------------------------------------------------------------------
// combining-tree barrier (arity 4)
// ---------------------------------------------------------------------

type ctNode struct {
	count    machine.Addr // arrivals at this node
	sense    machine.Addr // release flag for this node's waiters
	expected machine.Word
	parent   *ctNode
}

// combiningBarrier splits the arrival counter across a 4-ary tree of
// small counters: each processor arrives at its leaf node; the last
// arriver at each node climbs to the parent. Release cascades back down
// through the per-node sense flags. Contention on any one word is
// bounded by the tree arity. Node words live in the local memory of the
// lowest-numbered processor in the node's subtree.
type combiningBarrier struct {
	leaves     []*ctNode // indexed by processor
	localSense []machine.Word
}

const ctArity = 4

// NewCombiningBarrier builds a 4-ary combining-tree barrier.
func NewCombiningBarrier(m *machine.Machine) Barrier {
	procs := m.Procs()
	b := &combiningBarrier{
		leaves:     make([]*ctNode, procs),
		localSense: make([]machine.Word, procs),
	}
	// Build the bottom level: groups of up to ctArity processors.
	level := make([]*ctNode, 0, (procs+ctArity-1)/ctArity)
	for g := 0; g < procs; g += ctArity {
		hi := g + ctArity
		if hi > procs {
			hi = procs
		}
		node := &ctNode{
			count:    m.AllocLocal(g, 1),
			sense:    m.AllocLocal(g, 1),
			expected: machine.Word(hi - g),
		}
		for i := g; i < hi; i++ {
			b.leaves[i] = node
		}
		level = append(level, node)
	}
	// Collapse levels until a single root remains. The owner of a parent
	// node is the owner of its first child group.
	owners := make([]int, len(level))
	for i := range owners {
		owners[i] = i * ctArity
	}
	for len(level) > 1 {
		next := make([]*ctNode, 0, (len(level)+ctArity-1)/ctArity)
		nextOwners := make([]int, 0, cap(next))
		for g := 0; g < len(level); g += ctArity {
			hi := g + ctArity
			if hi > len(level) {
				hi = len(level)
			}
			owner := owners[g]
			parent := &ctNode{
				count:    m.AllocLocal(owner, 1),
				sense:    m.AllocLocal(owner, 1),
				expected: machine.Word(hi - g),
			}
			for i := g; i < hi; i++ {
				level[i].parent = parent
			}
			next = append(next, parent)
			nextOwners = append(nextOwners, owner)
		}
		level = next
		owners = nextOwners
	}
	return b
}

func (b *combiningBarrier) Wait(p *machine.Proc) {
	ls := 1 - b.localSense[p.ID()]
	b.localSense[p.ID()] = ls
	b.climb(p, b.leaves[p.ID()], ls)
}

func (b *combiningBarrier) climb(p *machine.Proc, n *ctNode, ls machine.Word) {
	pos := p.FetchAdd(n.count, 1)
	if pos == n.expected-1 {
		if n.parent != nil {
			b.climb(p, n.parent, ls)
		}
		p.Store(n.count, 0) // reset before release so the next episode is clean
		p.Store(n.sense, ls)
	} else {
		p.SpinUntilEq(n.sense, ls)
	}
}

// ---------------------------------------------------------------------
// dissemination barrier
// ---------------------------------------------------------------------

// disseminationBarrier runs ceil(log2 P) rounds; in round r, processor i
// signals processor (i + 2^r) mod P and waits for a signal from
// (i - 2^r) mod P. Every processor spins only on flags in its own local
// memory; each round costs exactly one remote write per processor.
// There is no distinguished root and no release phase.
type disseminationBarrier struct {
	procs  int
	rounds int
	// flags[parity][round] is a vector indexed by processor; the flag
	// for processor i lives in i's local memory.
	flags  [2][][]machine.Addr
	parity []int
	sense  []machine.Word
}

// NewDisseminationBarrier builds a dissemination barrier.
func NewDisseminationBarrier(m *machine.Machine) Barrier {
	procs := m.Procs()
	rounds := 0
	for 1<<rounds < procs {
		rounds++
	}
	if rounds == 0 {
		rounds = 1 // degenerate single-processor case still needs a slot
	}
	b := &disseminationBarrier{
		procs:  procs,
		rounds: rounds,
		parity: make([]int, procs),
		sense:  make([]machine.Word, procs),
	}
	for i := range b.sense {
		b.sense[i] = 1
	}
	for par := 0; par < 2; par++ {
		b.flags[par] = make([][]machine.Addr, rounds)
		for r := 0; r < rounds; r++ {
			b.flags[par][r] = make([]machine.Addr, procs)
			for i := 0; i < procs; i++ {
				b.flags[par][r][i] = m.AllocLocal(i, 1)
			}
		}
	}
	return b
}

func (b *disseminationBarrier) Wait(p *machine.Proc) {
	i := p.ID()
	par := b.parity[i]
	sense := b.sense[i]
	if b.procs > 1 {
		for r := 0; r < b.rounds; r++ {
			partner := (i + (1 << r)) % b.procs
			p.Store(b.flags[par][r][partner], sense)
			p.SpinUntilEq(b.flags[par][r][i], sense)
		}
	}
	if par == 1 {
		b.sense[i] = 1 - sense
	}
	b.parity[i] = 1 - par
}

// ---------------------------------------------------------------------
// tournament barrier
// ---------------------------------------------------------------------

// tournamentBarrier pairs processors in a static binary tree: the loser
// of each round signals the winner's (local) arrival flag and waits on
// its own (local) release flag; the champion descends writing release
// flags. All spins are local; the winner/loser roles are fixed by
// processor number, so no atomic operations are needed at all.
type tournamentBarrier struct {
	procs   int
	rounds  int
	arrive  [][]machine.Addr // [round][proc], in proc's local memory
	release [][]machine.Addr
	sense   []machine.Word
}

// NewTournamentBarrier builds a tournament barrier.
func NewTournamentBarrier(m *machine.Machine) Barrier {
	procs := m.Procs()
	rounds := 0
	for 1<<rounds < procs {
		rounds++
	}
	b := &tournamentBarrier{
		procs:   procs,
		rounds:  rounds,
		arrive:  make([][]machine.Addr, rounds),
		release: make([][]machine.Addr, rounds),
		sense:   make([]machine.Word, procs),
	}
	for r := 0; r < rounds; r++ {
		b.arrive[r] = make([]machine.Addr, procs)
		b.release[r] = make([]machine.Addr, procs)
		for i := 0; i < procs; i++ {
			b.arrive[r][i] = m.AllocLocal(i, 1)
			b.release[r][i] = m.AllocLocal(i, 1)
		}
	}
	return b
}

func (b *tournamentBarrier) Wait(p *machine.Proc) {
	i := p.ID()
	sense := b.sense[i] + 1 // fresh epoch value each episode
	b.sense[i] = sense

	// Ascend. Processor i wins round r iff bit r..0 of i are zero; the
	// loser signals and stops climbing.
	stopped := b.rounds
	for r := 0; r < b.rounds; r++ {
		span := 1 << r
		if i%(span<<1) == 0 {
			partner := i + span
			if partner < b.procs {
				p.SpinUntilEq(b.arrive[r][i], sense)
			}
			// Bye (partner beyond P): advance silently.
		} else {
			partner := i - span
			p.Store(b.arrive[r][partner], sense)
			p.SpinUntilEq(b.release[r][i], sense)
			stopped = r
			break
		}
	}
	// Descend: wake the losers of every round we won with a live partner.
	for r := stopped - 1; r >= 0; r-- {
		partner := i + 1<<r
		if partner < b.procs {
			p.Store(b.release[r][partner], sense)
		}
	}
}

// ---------------------------------------------------------------------
// QSync tree barrier — the mechanism's barrier
// ---------------------------------------------------------------------

// qsyncTreeBarrier is the mechanism's event discipline applied to
// barriers: a static 4-ary tree where children *push* arrival epochs
// into slots in the parent's local memory and the parent *pushes* the
// release epoch directly into each child's personal flag — the same
// direct-hand-off idea as the lock's grant. All spins are on the
// processor's own module; per episode each processor issues at most one
// remote arrival store and receives one release store.
type qsyncTreeBarrier struct {
	procs int
	// childSlots[i] is the base of a 4-word arrival vector in processor
	// i's local memory; slot s is written by child 4i+s+1.
	childSlots []machine.Addr
	relFlag    []machine.Addr // personal release flag, local to each proc
	epoch      []machine.Word // host-side per-processor episode number
}

const qtArity = 4

// NewQSyncTreeBarrier builds the mechanism's tree barrier.
func NewQSyncTreeBarrier(m *machine.Machine) Barrier {
	procs := m.Procs()
	b := &qsyncTreeBarrier{
		procs:      procs,
		childSlots: make([]machine.Addr, procs),
		relFlag:    make([]machine.Addr, procs),
		epoch:      make([]machine.Word, procs),
	}
	for i := 0; i < procs; i++ {
		b.childSlots[i] = m.AllocLocal(i, qtArity)
		b.relFlag[i] = m.AllocLocal(i, 1)
	}
	return b
}

func (b *qsyncTreeBarrier) Wait(p *machine.Proc) {
	i := p.ID()
	epoch := b.epoch[i] + 1
	b.epoch[i] = epoch

	// Gather: wait for each existing child to post this epoch into our
	// local arrival vector.
	for s := 0; s < qtArity; s++ {
		child := qtArity*i + s + 1
		if child >= b.procs {
			break
		}
		p.SpinUntilEq(b.childSlots[i]+machine.Addr(s), epoch)
	}
	if i != 0 {
		parent := (i - 1) / qtArity
		slot := machine.Addr((i - 1) % qtArity)
		p.Store(b.childSlots[parent]+slot, epoch) // one remote store
		p.SpinUntilEq(b.relFlag[i], epoch)        // local spin
	}
	// Scatter: push the release epoch to each child's personal flag.
	for s := 0; s < qtArity; s++ {
		child := qtArity*i + s + 1
		if child >= b.procs {
			break
		}
		p.Store(b.relFlag[child], epoch)
	}
}
