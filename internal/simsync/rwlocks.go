package simsync

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// RWLock is a simulated reader-writer lock.
type RWLock interface {
	AcquireRead(p *machine.Proc)
	ReleaseRead(p *machine.Proc)
	AcquireWrite(p *machine.Proc)
	ReleaseWrite(p *machine.Proc)
}

// RWLockMaker constructs a reader-writer lock on a machine.
type RWLockMaker func(m *machine.Machine) RWLock

// RWLockInfo describes one algorithm.
type RWLockInfo struct {
	Name string
	Make RWLockMaker
}

// ---------------------------------------------------------------------
// counter-based reader-writer lock (the naive era baseline)
// ---------------------------------------------------------------------

// counterRW takes a test&set writer latch plus a reader count. Readers
// spin on the latch, increment, and back out if a writer sneaked in;
// writers take the latch and spin for the count to drain. Simple,
// reader-preferring, and capable of starving writers — which is why the
// mechanism's fair variant exists.
type counterRW struct {
	wlatch  machine.Addr
	readers machine.Addr
}

// NewCounterRW builds the counter-based reader-writer lock.
func NewCounterRW(m *machine.Machine) RWLock {
	return &counterRW{wlatch: m.AllocShared(1), readers: m.AllocShared(1)}
}

func (l *counterRW) AcquireRead(p *machine.Proc) {
	for {
		p.SpinUntilEq(l.wlatch, 0)
		p.FetchAdd(l.readers, 1)
		if p.Load(l.wlatch) == 0 {
			return
		}
		// A writer claimed the latch between our check and increment:
		// back out and retry.
		p.FetchAdd(l.readers, ^machine.Word(0))
	}
}

func (l *counterRW) ReleaseRead(p *machine.Proc) {
	p.FetchAdd(l.readers, ^machine.Word(0)) // -1
}

func (l *counterRW) AcquireWrite(p *machine.Proc) {
	p.SpinTTAS(l.wlatch)
	p.SpinUntilEq(l.readers, 0)
}

func (l *counterRW) ReleaseWrite(p *machine.Proc) {
	p.Store(l.wlatch, 0)
}

// ---------------------------------------------------------------------
// the mechanism's fair reader-writer lock (queue with reader chaining)
// ---------------------------------------------------------------------

// Node layout (per-processor, in local memory).
const (
	rwNext  = 0 // successor pointer (PtrWord)
	rwState = 1 // blocked bit | successor-class bits
	rwClass = 2 // this waiter's class (read by the successor)
	rwWords = 3
)

// State word bits (mirrors internal/core/rwmutex.go).
const (
	rwBlocked    machine.Word = 1 << 0
	rwSuccNone   machine.Word = 0 << 1
	rwSuccReader machine.Word = 1 << 1
	rwSuccWriter machine.Word = 2 << 1
	rwSuccMask   machine.Word = 3 << 1
)

const (
	classReader machine.Word = 0
	classWriter machine.Word = 1
)

// qsyncRW is the fair queue-based reader-writer lock built on the
// mechanism's cell: one queue of typed records, batched reader grants
// via chaining, direct hand-off to the next writer. All spinning is on
// the waiter's own record.
type qsyncRW struct {
	tail       machine.Addr // the cell
	readers    machine.Addr // active reader count
	nextWriter machine.Addr // writer waiting for readers to drain
	nodes      []machine.Addr
}

// NewQSyncRW builds the mechanism's reader-writer lock.
func NewQSyncRW(m *machine.Machine) RWLock {
	l := &qsyncRW{
		tail:       m.AllocShared(1),
		readers:    m.AllocShared(1),
		nextWriter: m.AllocShared(1),
		nodes:      make([]machine.Addr, m.Procs()),
	}
	for i := range l.nodes {
		l.nodes[i] = m.AllocLocal(i, rwWords)
	}
	return l
}

// setSucc merges a successor class into a node's state word.
func setSucc(p *machine.Proc, state machine.Addr, sc machine.Word) {
	for {
		old := p.Load(state)
		if p.CompareAndSwap(state, old, (old&^rwSuccMask)|sc) {
			return
		}
	}
}

// clearBlocked clears the blocked bit, preserving successor class.
func clearBlocked(p *machine.Proc, state machine.Addr) {
	for {
		old := p.Load(state)
		if p.CompareAndSwap(state, old, old&^rwBlocked) {
			return
		}
	}
}

func (l *qsyncRW) AcquireWrite(p *machine.Proc) {
	n := l.nodes[p.ID()]
	p.Store(n+rwNext, 0)
	p.Store(n+rwClass, classWriter)
	p.Store(n+rwState, rwBlocked|rwSuccNone)
	pred := p.FetchStore(l.tail, machine.PtrWord(n))
	if pred == 0 {
		p.Store(l.nextWriter, machine.PtrWord(n))
		if p.Load(l.readers) == 0 && p.FetchStore(l.nextWriter, 0) == machine.PtrWord(n) {
			clearBlocked(p, n+rwState)
		}
	} else {
		pa := machine.WordPtr(pred)
		setSucc(p, pa+rwState, rwSuccWriter)
		p.Store(pa+rwNext, machine.PtrWord(n))
	}
	p.SpinUntilPred(n+rwState, machine.Pred{Op: machine.PredEq, Mask: rwBlocked, Want: 0})
}

func (l *qsyncRW) ReleaseWrite(p *machine.Proc) {
	n := l.nodes[p.ID()]
	next := p.Load(n + rwNext)
	if next != 0 || !p.CompareAndSwap(l.tail, machine.PtrWord(n), 0) {
		next = p.SpinWhileEq(n+rwNext, 0)
		na := machine.WordPtr(next)
		if p.Load(na+rwClass) == classReader {
			p.FetchAdd(l.readers, 1)
		}
		clearBlocked(p, na+rwState)
	}
}

func (l *qsyncRW) AcquireRead(p *machine.Proc) {
	n := l.nodes[p.ID()]
	p.Store(n+rwNext, 0)
	p.Store(n+rwClass, classReader)
	p.Store(n+rwState, rwBlocked|rwSuccNone)
	pred := p.FetchStore(l.tail, machine.PtrWord(n))
	if pred == 0 {
		p.FetchAdd(l.readers, 1)
		clearBlocked(p, n+rwState)
	} else {
		pa := machine.WordPtr(pred)
		if p.Load(pa+rwClass) == classWriter ||
			p.CompareAndSwap(pa+rwState, rwBlocked|rwSuccNone, rwBlocked|rwSuccReader) {
			// Predecessor is a writer or a blocked reader: wait to be
			// chained in.
			p.Store(pa+rwNext, machine.PtrWord(n))
			p.SpinUntilPred(n+rwState, machine.Pred{Op: machine.PredEq, Mask: rwBlocked, Want: 0})
		} else {
			// Active reader ahead of us: join the batch immediately.
			p.FetchAdd(l.readers, 1)
			p.Store(pa+rwNext, machine.PtrWord(n))
			clearBlocked(p, n+rwState)
		}
	}
	if p.Load(n+rwState)&rwSuccMask == rwSuccReader {
		// Chain-unblock the reader queued behind us.
		next := p.SpinWhileEq(n+rwNext, 0)
		p.FetchAdd(l.readers, 1)
		clearBlocked(p, machine.WordPtr(next)+rwState)
	}
}

func (l *qsyncRW) ReleaseRead(p *machine.Proc) {
	n := l.nodes[p.ID()]
	next := p.Load(n + rwNext)
	if next != 0 || !p.CompareAndSwap(l.tail, machine.PtrWord(n), 0) {
		next = p.SpinWhileEq(n+rwNext, 0)
		if p.Load(n+rwState)&rwSuccMask == rwSuccWriter {
			p.Store(l.nextWriter, next)
		}
	}
	if p.FetchAdd(l.readers, ^machine.Word(0)) == 1 {
		w := p.FetchStore(l.nextWriter, 0)
		if w != 0 {
			clearBlocked(p, machine.WordPtr(w)+rwState)
		}
	}
}

// RWOpts configures a simulated reader-writer workload.
type RWOpts struct {
	Iters        int
	ReadFraction float64  // 0..1
	Work         sim.Time // work inside each section
	Think        sim.Time // mean think time between sections
}

// RWResult reports a simulated reader-writer run.
type RWResult struct {
	Lock         string
	Topo         topo.Topology
	Procs        int
	Reads        uint64
	Writes       uint64
	Cycles       sim.Time
	CyclesPerOp  float64
	TrafficPerOp float64
	Stats        machine.Stats
}

// RunRWIn drives a simulated reader-writer lock through a read/write
// mix on a machine drawn from pool (see machine.Pool) and verifies both
// exclusion invariants exactly (the simulator interleaves only at yield
// points, so host-side brackets are precise): writers exclude everyone;
// readers exclude writers only.
func RunRWIn(pool *machine.Pool, cfg machine.Config, info RWLockInfo, opts RWOpts) (RWResult, error) {
	cfg = cfg.Defaults()
	m, err := pool.Get(cfg)
	if err != nil {
		return RWResult{}, err
	}
	defer pool.Put(m)
	lock := info.Make(m)

	activeReaders, activeWriters := 0, 0
	violations := 0
	var reads, writes uint64

	body := func(p *machine.Proc) {
		rng := p.RNG()
		for i := 0; i < opts.Iters; i++ {
			if opts.Think > 0 {
				p.Delay(rng.ExpTime(opts.Think))
			}
			if rng.Float64() < opts.ReadFraction {
				lock.AcquireRead(p)
				activeReaders++
				if activeWriters != 0 {
					violations++
				}
				if opts.Work > 0 {
					p.Delay(opts.Work)
				}
				activeReaders--
				lock.ReleaseRead(p)
				reads++
			} else {
				lock.AcquireWrite(p)
				activeWriters++
				if activeWriters != 1 || activeReaders != 0 {
					violations++
				}
				if opts.Work > 0 {
					p.Delay(opts.Work)
				}
				activeWriters--
				lock.ReleaseWrite(p)
				writes++
			}
		}
	}

	if err := m.Run(body); err != nil {
		return RWResult{}, fmt.Errorf("rwlock %q: %w", info.Name, err)
	}
	if violations > 0 {
		return RWResult{}, fmt.Errorf("rwlock %q: %d exclusion violations", info.Name, violations)
	}

	st := m.Stats()
	total := reads + writes
	res := RWResult{
		Lock:   info.Name,
		Topo:   cfg.Topo,
		Procs:  cfg.Procs,
		Reads:  reads,
		Writes: writes,
		Cycles: st.Cycles,
		Stats:  st,
	}
	if total > 0 {
		res.CyclesPerOp = float64(st.Cycles) / float64(total)
		res.TrafficPerOp = float64(st.TrafficFor(cfg.Topo)) / float64(total)
	}
	return res, nil
}
