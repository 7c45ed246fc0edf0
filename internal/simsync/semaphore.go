package simsync

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Semaphore is a simulated counting semaphore.
type Semaphore interface {
	P(p *machine.Proc) // acquire one permit
	V(p *machine.Proc) // release one permit
}

// SemaphoreMaker constructs a semaphore with an initial permit count.
type SemaphoreMaker func(m *machine.Machine, permits int) Semaphore

// SemaphoreInfo describes one algorithm.
type SemaphoreInfo struct {
	Name string
	Make SemaphoreMaker
}

// ---------------------------------------------------------------------
// central spinning semaphore (baseline)
// ---------------------------------------------------------------------

// centralSem guards a counter with a test&set latch; P spins re-taking
// the latch until a permit appears. Every blocked processor keeps
// hammering the shared pair — the semaphore version of the tas lock.
type centralSem struct {
	latch machine.Addr
	count machine.Addr
}

// NewCentralSemaphore builds the central spinning semaphore.
func NewCentralSemaphore(m *machine.Machine, permits int) Semaphore {
	s := &centralSem{latch: m.AllocShared(1), count: m.AllocShared(1)}
	m.Poke(s.count, machine.Word(permits))
	return s
}

// semLatchBackoff is the fixed 8-cycle pause between latch probes.
var semLatchBackoff = machine.Backoff{Base: 8, Cap: 8}

func (s *centralSem) P(p *machine.Proc) {
	for {
		// Wait for permits to look available, then take the latch.
		p.SpinUntilPred(s.count, machine.Pred{Op: machine.PredGt, Want: 0})
		p.SpinTAS(s.latch, semLatchBackoff)
		if p.Load(s.count) > 0 {
			p.Store(s.count, p.Load(s.count)-1)
			p.Store(s.latch, 0)
			return
		}
		p.Store(s.latch, 0)
	}
}

func (s *centralSem) V(p *machine.Proc) {
	p.SpinTAS(s.latch, semLatchBackoff)
	p.Store(s.count, p.Load(s.count)+1)
	p.Store(s.latch, 0)
}

// ---------------------------------------------------------------------
// the mechanism's queueing semaphore
// ---------------------------------------------------------------------

// qsyncSem derives a FIFO counting semaphore from the mechanism's cell:
// the count and waiter queue are guarded by a QSync lock held only for
// the constant-time bookkeeping, and a blocked processor spins on a
// flag in its own local memory. V hands a permit directly to the
// oldest waiter.
type qsyncSem struct {
	lock  Lock         // short-section guard (the mechanism's mutex)
	count machine.Addr // available permits
	head  machine.Addr // waiter queue head (PtrWord of a wait flag)
	tail  machine.Addr
	// Per-processor wait records: [next, flag], in local memory.
	nodes []machine.Addr
}

// NewQSyncSemaphore builds the mechanism's semaphore.
func NewQSyncSemaphore(m *machine.Machine, permits int) Semaphore {
	s := &qsyncSem{
		lock:  NewQSync(m),
		count: m.AllocShared(1),
		head:  m.AllocShared(1),
		tail:  m.AllocShared(1),
		nodes: make([]machine.Addr, m.Procs()),
	}
	m.Poke(s.count, machine.Word(permits))
	for i := range s.nodes {
		s.nodes[i] = m.AllocLocal(i, 2)
	}
	return s
}

const (
	semNext = 0
	semFlag = 1
)

func (s *qsyncSem) P(p *machine.Proc) {
	s.lock.Acquire(p)
	if c := p.Load(s.count); c > 0 {
		p.Store(s.count, c-1)
		s.lock.Release(p)
		return
	}
	// Enqueue our local record and wait on our own flag.
	n := s.nodes[p.ID()]
	p.Store(n+semNext, 0)
	p.Store(n+semFlag, 0)
	if tail := p.Load(s.tail); tail == 0 {
		p.Store(s.head, machine.PtrWord(n))
	} else {
		p.Store(machine.WordPtr(tail)+semNext, machine.PtrWord(n))
	}
	p.Store(s.tail, machine.PtrWord(n))
	s.lock.Release(p)
	p.SpinUntilEq(n+semFlag, 1) // local spin; V writes exactly this word
}

func (s *qsyncSem) V(p *machine.Proc) {
	s.lock.Acquire(p)
	head := p.Load(s.head)
	if head != 0 {
		h := machine.WordPtr(head)
		next := p.Load(h + semNext)
		p.Store(s.head, next)
		if next == 0 {
			p.Store(s.tail, 0)
		}
		s.lock.Release(p)
		p.Store(h+semFlag, 1) // direct hand-off
		return
	}
	p.Store(s.count, p.Load(s.count)+1)
	s.lock.Release(p)
}

// PCOpts configures a simulated producer/consumer workload.
type PCOpts struct {
	Items    int      // total items through the buffer
	Capacity int      // buffer capacity
	Work     sim.Time // per-item work on each side
}

// PCResult reports a simulated producer/consumer run.
type PCResult struct {
	Semaphore      string
	Topo           topo.Topology
	Procs          int
	Items          int
	Cycles         sim.Time
	CyclesPerItem  float64
	TrafficPerItem float64
	Stats          machine.Stats
}

// RunProducerConsumerIn drives a bounded buffer with two semaphores
// (spaces, items) on half producers / half consumers, on a machine drawn
// from pool (see machine.Pool), and validates conservation: every slot
// value written is read exactly once.
func RunProducerConsumerIn(pool *machine.Pool, cfg machine.Config, info SemaphoreInfo, opts PCOpts) (PCResult, error) {
	cfg = cfg.Defaults()
	if cfg.Procs < 2 {
		return PCResult{}, fmt.Errorf("producer/consumer needs at least 2 processors")
	}
	if opts.Capacity < 1 {
		opts.Capacity = 1
	}
	m, err := pool.Get(cfg)
	if err != nil {
		return PCResult{}, err
	}
	defer pool.Put(m)
	spaces := info.Make(m, opts.Capacity)
	items := info.Make(m, 0)
	ring := m.AllocShared(opts.Capacity)
	mutex := NewQSync(m) // guards ring indexes on both algorithms
	headA := m.AllocShared(1)
	tailA := m.AllocShared(1)

	producers := cfg.Procs / 2
	nextItem := 0 // host-side dispensers (mutated only at yield points)
	nextTake := 0
	var sumIn, sumOut uint64

	body := func(p *machine.Proc) {
		if p.ID() < producers {
			for {
				if nextItem >= opts.Items {
					return
				}
				nextItem++
				v := machine.Word(nextItem)
				spaces.P(p)
				mutex.Acquire(p)
				t := p.Load(tailA)
				p.Store(ring+machine.Addr(t), v)
				p.Store(tailA, (t+1)%machine.Word(opts.Capacity))
				mutex.Release(p)
				items.V(p)
				sumIn += uint64(v)
				if opts.Work > 0 {
					p.Delay(opts.Work)
				}
			}
		}
		for {
			if nextTake >= opts.Items {
				return
			}
			nextTake++
			items.P(p)
			mutex.Acquire(p)
			h := p.Load(headA)
			v := p.Load(ring + machine.Addr(h))
			p.Store(headA, (h+1)%machine.Word(opts.Capacity))
			mutex.Release(p)
			spaces.V(p)
			sumOut += uint64(v)
			if opts.Work > 0 {
				p.Delay(opts.Work)
			}
		}
	}

	if err := m.Run(body); err != nil {
		return PCResult{}, fmt.Errorf("semaphore %q: %w", info.Name, err)
	}
	if sumIn != sumOut {
		return PCResult{}, fmt.Errorf("semaphore %q lost items: in=%d out=%d", info.Name, sumIn, sumOut)
	}

	st := m.Stats()
	res := PCResult{
		Semaphore: info.Name,
		Topo:      cfg.Topo,
		Procs:     cfg.Procs,
		Items:     opts.Items,
		Cycles:    st.Cycles,
		Stats:     st,
	}
	if opts.Items > 0 {
		res.CyclesPerItem = float64(st.Cycles) / float64(opts.Items)
		res.TrafficPerItem = float64(st.TrafficFor(cfg.Topo)) / float64(opts.Items)
	}
	return res, nil
}
