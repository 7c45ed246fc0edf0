package simsync

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Counter is a simulated shared counter supporting a concurrent
// increment — the "hot spot" object of the late-1980s interconnection
// literature (histogram bins, loop indexes, job queues all reduce to
// it).
type Counter interface {
	// Inc adds one and returns the pre-increment value.
	Inc(p *machine.Proc) machine.Word
}

// CounterMaker constructs a counter on a machine.
type CounterMaker func(m *machine.Machine) Counter

// CounterInfo describes one algorithm.
type CounterInfo struct {
	Name string
	Make CounterMaker
}

// faCounter is the baseline: every increment is a fetch&add on one
// word. On a bus each is an invalidating transaction; on NUMA every
// increment queues at the word's home module — the textbook hot spot.
type faCounter struct {
	w machine.Addr
}

// NewFetchAddCounter builds the plain fetch&add counter.
func NewFetchAddCounter(m *machine.Machine) Counter {
	return &faCounter{w: m.AllocShared(1)}
}

func (c *faCounter) Inc(p *machine.Proc) machine.Word {
	return p.FetchAdd(c.w, 1)
}

// combiningCounter is a software combining tree: processors are paired
// at each level; when two increments meet at a node, one processor
// carries the combined count upward and the other waits for its share
// of the result. The root sees at most one operation per combining
// window, so the hot spot's traffic is spread across the tree.
//
// This implementation uses a binary tree of combining slots. A
// processor climbing with `carry` increments tries to deposit at its
// level slot: if the slot is empty (CAS 0 -> carry), it waits for a
// partner or, failing that, climbs alone after claiming the slot back;
// if the slot is full, it takes the deposit, combines, and climbs with
// the sum, later distributing the partner's base value.
//
// For determinism and boundedness we use the simpler two-phase variant:
// the *first* arrival at a node parks its contribution and waits; the
// *second* combines and climbs. A parked processor that is never
// matched would wait forever, so arrivals time out after a fixed
// window and climb alone (claiming their deposit back with a CAS).
type combiningCounter struct {
	root   machine.Addr
	levels [][]combineNode
	window sim.Time
}

type combineNode struct {
	deposit machine.Addr // parked contribution (0 = empty)
	result  machine.Addr // base value handed back to the parked proc (result+1 encodes)
}

// NewCombiningCounter builds a software combining tree counter.
func NewCombiningCounter(m *machine.Machine) Counter {
	procs := m.Procs()
	c := &combiningCounter{root: m.AllocShared(1), window: 60}
	for width := (procs + 1) / 2; ; width = (width + 1) / 2 {
		level := make([]combineNode, width)
		for i := range level {
			level[i] = combineNode{
				deposit: m.AllocShared(1),
				result:  m.AllocShared(1),
			}
		}
		c.levels = append(c.levels, level)
		if width <= 1 {
			break
		}
	}
	return c
}

// lockedSlot marks a deposit captured by a combiner. The slot stays in
// this state until the parked partner has consumed its result and
// reopened the slot, so at most one result is ever in flight per node —
// the property that makes the hand-back race-free.
const lockedSlot = ^machine.Word(0)

func (c *combiningCounter) Inc(p *machine.Proc) machine.Word {
	const carry = machine.Word(1)
	id := p.ID()
	for lvl := 0; lvl < len(c.levels); lvl++ {
		node := &c.levels[lvl][(id>>(uint(lvl)+1))%len(c.levels[lvl])]
		// Try to park our contribution and wait for a combiner.
		if p.CompareAndSwap(node.deposit, 0, carry) {
			deadline := p.Now() + c.window
			for {
				v := p.Load(node.result)
				if v != 0 {
					p.Store(node.result, 0)
					p.Store(node.deposit, 0) // reopen the slot
					return v - 1             // our base (encoded +1)
				}
				if p.Now() >= deadline {
					if p.CompareAndSwap(node.deposit, carry, 0) {
						break // withdrawn: try the next level
					}
					// A combiner captured our deposit between the check
					// and the CAS; its result is (or will be) there.
					v = p.SpinWhileEq(node.result, 0)
					p.Store(node.result, 0)
					p.Store(node.deposit, 0)
					return v - 1
				}
				p.Delay(8)
			}
			continue
		}
		// The slot looked busy: try to capture the parked contribution.
		old := p.FetchStore(node.deposit, lockedSlot)
		if old == 0 || old == lockedSlot {
			// Raced with a reopen or another combiner; restore what we
			// displaced (a re-written lockedSlot is harmless: the
			// partner's reopen store orders with ours either way).
			if old == 0 {
				p.Store(node.deposit, 0)
			}
			continue
		}
		// Captured a real deposit: climb with the sum, hand back the
		// partner's base. The slot is ours (locked), so result is free.
		base := p.FetchAdd(c.root, carry+old)
		p.Store(node.result, base+carry+1) // partner's range starts after ours
		return base
	}
	return p.FetchAdd(c.root, carry)
}

// CounterOpts configures a hot-spot counter workload.
type CounterOpts struct {
	Incs  int      // increments per processor
	Think sim.Time // mean think time between increments
}

// CounterResult reports a hot-spot counter run.
type CounterResult struct {
	Counter       string
	Topo          topo.Topology
	Procs         int
	Incs          uint64
	Cycles        sim.Time
	CyclesPerInc  float64
	TrafficPerInc float64
	Stats         machine.Stats
}

// RunCounterIn drives a counter from every processor on a machine
// drawn from pool (see machine.Pool) and checks the two correctness
// properties of a combining counter: the final total equals the number
// of increments, and the returned pre-increment values are unique (each
// caller owns a distinct slot of the count).
func RunCounterIn(pool *machine.Pool, cfg machine.Config, info CounterInfo, opts CounterOpts) (CounterResult, error) {
	cfg = cfg.Defaults()
	m, err := pool.Get(cfg)
	if err != nil {
		return CounterResult{}, err
	}
	defer pool.Put(m)
	ctr := info.Make(m)

	seen := make(map[machine.Word]bool)
	dups := 0
	var total uint64

	body := func(p *machine.Proc) {
		rng := p.RNG()
		for i := 0; i < opts.Incs; i++ {
			if opts.Think > 0 {
				p.Delay(rng.ExpTime(opts.Think))
			}
			v := ctr.Inc(p)
			if seen[v] {
				dups++
			}
			seen[v] = true
			total++
		}
	}

	if err := m.Run(body); err != nil {
		return CounterResult{}, fmt.Errorf("counter %q: %w", info.Name, err)
	}
	if dups > 0 {
		return CounterResult{}, fmt.Errorf("counter %q returned %d duplicate values", info.Name, dups)
	}
	want := uint64(cfg.Procs) * uint64(opts.Incs)
	if total != want {
		return CounterResult{}, fmt.Errorf("counter %q: %d increments, want %d", info.Name, total, want)
	}
	// Counters whose value is distributed (the sharded counter) expose a
	// combine-on-read path; validate it against the host-side count.
	if tr, ok := ctr.(interface {
		ReadTotal(*machine.Machine) machine.Word
	}); ok {
		if got := tr.ReadTotal(m); uint64(got) != total {
			return CounterResult{}, fmt.Errorf("counter %q combined total %d, want %d", info.Name, got, total)
		}
	}

	st := m.Stats()
	res := CounterResult{
		Counter: info.Name,
		Topo:    cfg.Topo,
		Procs:   cfg.Procs,
		Incs:    total,
		Cycles:  st.Cycles,
		Stats:   st,
	}
	if total > 0 {
		res.CyclesPerInc = float64(st.Cycles) / float64(total)
		res.TrafficPerInc = float64(st.TrafficFor(cfg.Topo)) / float64(total)
	}
	return res, nil
}
