// Package barriers provides real-runtime implementations of the 1991
// baseline barrier algorithms, for comparison with the mechanism's
// barriers in internal/core. All of these are identified-party barriers:
// each participant calls Wait with a fixed id in [0, n).
//
// As with package locks, the simulator carries the paper's quantitative
// claims; these are the practical twins.
package barriers

import (
	"runtime"
	"sync/atomic"

	"repro/internal/registry"
)

// Barrier is an identified-party episode barrier.
type Barrier interface {
	Name() string
	Wait(id int)
	Parties() int
}

// Info describes one barrier algorithm.
type Info struct {
	Name string
	New  func(parties int) Barrier
}

// Registry is the barrier family's registry.Set, in canonical order.
var Registry = registry.NewSet[Info]("barriers", func(i Info) string { return i.Name })

func init() {
	Registry.Register(
		Info{Name: "dissemination", New: func(n int) Barrier { return NewDissemination(n) }},
		Info{Name: "tournament", New: func(n int) Barrier { return NewTournament(n) }},
	)
}

// All returns the registry in canonical order.
func All() []Info { return Registry.All() }

// ByName returns the registry entry for name, or false.
func ByName(name string) (Info, bool) { return Registry.ByName(name) }

// spin waits for cond with periodic yields.
func spin(cond func() bool) {
	for i := 0; !cond(); i++ {
		if i%4096 == 4095 {
			runtime.Gosched()
		}
	}
}

// padded64 keeps hot flags on separate cache lines.
type padded64 struct {
	v atomic.Uint64
	_ [56]byte
}

// Dissemination is the log-round pairwise-signal barrier: in round r,
// party i signals party (i+2^r) mod n and waits for its own flag. No
// root, no release phase, all spins on the party's own flags.
type Dissemination struct {
	n      int
	rounds int
	flags  [2][][]padded64 // [parity][round][party]
	parity []int           // per-party; padded by distance in practice
	sense  []uint64
}

// NewDissemination builds a dissemination barrier for n parties.
func NewDissemination(n int) *Dissemination {
	if n < 1 {
		panic("barriers: NewDissemination with fewer than one party")
	}
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	if rounds == 0 {
		rounds = 1
	}
	b := &Dissemination{
		n:      n,
		rounds: rounds,
		parity: make([]int, n),
		sense:  make([]uint64, n),
	}
	for i := range b.sense {
		b.sense[i] = 1
	}
	for par := 0; par < 2; par++ {
		b.flags[par] = make([][]padded64, rounds)
		for r := 0; r < rounds; r++ {
			b.flags[par][r] = make([]padded64, n)
		}
	}
	return b
}

// Name implements Barrier.
func (b *Dissemination) Name() string { return "dissemination" }

// Parties implements Barrier.
func (b *Dissemination) Parties() int { return b.n }

// Wait implements Barrier.
func (b *Dissemination) Wait(id int) {
	par := b.parity[id]
	sense := b.sense[id]
	if b.n > 1 {
		for r := 0; r < b.rounds; r++ {
			partner := (id + (1 << r)) % b.n
			b.flags[par][r][partner].v.Store(sense)
			flag := &b.flags[par][r][id].v
			spin(func() bool { return flag.Load() == sense })
		}
	}
	if par == 1 {
		b.sense[id] = sense + 1
	}
	b.parity[id] = 1 - par
}

// Tournament statically pairs parties in a binary elimination tree;
// losers signal winners and wait; the champion broadcasts release back
// down. No atomic read-modify-writes at all.
type Tournament struct {
	n       int
	rounds  int
	arrive  [][]padded64 // [round][party]
	release [][]padded64
	sense   []uint64
}

// NewTournament builds a tournament barrier for n parties.
func NewTournament(n int) *Tournament {
	if n < 1 {
		panic("barriers: NewTournament with fewer than one party")
	}
	rounds := 0
	for 1<<rounds < n {
		rounds++
	}
	b := &Tournament{
		n:       n,
		rounds:  rounds,
		arrive:  make([][]padded64, rounds),
		release: make([][]padded64, rounds),
		sense:   make([]uint64, n),
	}
	for r := 0; r < rounds; r++ {
		b.arrive[r] = make([]padded64, n)
		b.release[r] = make([]padded64, n)
	}
	return b
}

// Name implements Barrier.
func (b *Tournament) Name() string { return "tournament" }

// Parties implements Barrier.
func (b *Tournament) Parties() int { return b.n }

// Wait implements Barrier.
func (b *Tournament) Wait(id int) {
	sense := b.sense[id] + 1
	b.sense[id] = sense

	stopped := b.rounds
	for r := 0; r < b.rounds; r++ {
		span := 1 << r
		if id%(span<<1) == 0 {
			partner := id + span
			if partner < b.n {
				flag := &b.arrive[r][id].v
				spin(func() bool { return flag.Load() == sense })
			}
		} else {
			partner := id - span
			b.arrive[r][partner].v.Store(sense)
			flag := &b.release[r][id].v
			spin(func() bool { return flag.Load() == sense })
			stopped = r
			break
		}
	}
	for r := stopped - 1; r >= 0; r-- {
		partner := id + 1<<r
		if partner < b.n {
			b.release[r][partner].v.Store(sense)
		}
	}
}
