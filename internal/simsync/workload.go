package simsync

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// LockOpts configures a simulated lock workload.
type LockOpts struct {
	Iters int      // acquisitions per processor (ignored if Duration > 0)
	CS    sim.Time // work performed inside the critical section
	Think sim.Time // mean exponential think time between acquisitions

	// Duration, when positive, switches to open-ended mode: processors
	// acquire repeatedly until the virtual clock passes Duration. This is
	// the mode used for fairness measurements, where per-processor
	// acquisition counts are allowed to diverge.
	Duration sim.Time

	CheckMutex  bool // verify mutual exclusion with a read-delay-write counter
	RecordOrder bool // record enqueue/grant times for FIFO analysis

	// Budget, when positive and the lock implements BoundedLock, bounds
	// each acquire attempt: an attempt that cannot acquire within Budget
	// cycles counts as a timeout and the processor tries again. Zero (or
	// an unbounded lock) means blocking Acquire, where a lock word wedged
	// by a crashed holder ends the run at the step limit or in deadlock.
	Budget sim.Time

	// MaxAttempts, when positive, caps each processor's acquire attempts,
	// timed-out ones included. Setting it to Iters makes every attempt an
	// iteration, so timeouts cost completed acquisitions (FT1's
	// accounting); zero retries a timed-out attempt until Iters
	// acquisitions complete (FT3's).
	MaxAttempts int
}

// LockResult is the outcome of one lock workload run. Under a fault
// plan every count and Stats are valid for every Outcome: a degraded
// run reports the work completed before the wedge.
type LockResult struct {
	Lock  string
	Topo  topo.Topology
	Procs int
	// Acquisitions counts entries into the critical section, across
	// incarnations (a reborn processor redoes an acquisition whose
	// release its crash cut off).
	Acquisitions uint64
	Cycles       sim.Time
	CyclesPerAcq float64
	// TrafficPerAcq is interconnect transactions (bus transactions or
	// remote references, per the model) per acquisition.
	TrafficPerAcq float64
	// AcqPerProc counts each processor's completed (released)
	// acquisitions: the progress a reborn processor resumes from.
	AcqPerProc []uint64
	// FIFOInversions counts pairs granted out of arrival order
	// (normalized later by the harness; exact queue locks score 0).
	FIFOInversions uint64
	Stats          machine.Stats

	Resilience
	Attempts    uint64 // acquire attempts issued (all processors and incarnations)
	Timeouts    uint64 // bounded attempts that expired
	Orphaned    uint64 // acquisitions that reclaimed the lock from a dead or reborn holder
	StaleWrites uint64 // fenced critical-section writes suppressed (FencedLock under a plan)
}

// AcqPerKCycle is throughput: acquisitions per thousand elapsed cycles.
// The resilience sweeps plot it against fault level.
func (r LockResult) AcqPerKCycle() float64 {
	if r.Cycles <= 0 {
		return 0
	}
	return float64(r.Acquisitions) * 1000 / float64(r.Cycles)
}

// grantRecord captures one acquisition for fairness/FIFO analysis.
type grantRecord struct {
	enqueue sim.Time // time Acquire was entered
	grant   sim.Time // time Acquire returned
}

// RunLockIn executes a standard critical-section workload for one lock
// algorithm on a machine drawn from pool (see machine.Pool) and verifies
// the lock's safety invariants as it goes. Any invariant violation is
// returned as an error: a broken lock must never produce a data point.
//
// A fault-free cell (no plan, no Budget) of a scripted lock — every
// lock in LockSet — runs each processor's whole workload as one
// continuation script (machine.RunScript) that every processor shares:
// the loop-top test, the think time, the attempt bookkeeping, a call to
// the lock's acquire script (machine.ContSub), the critical section
// between the host-side bracket checks, a call to its release script,
// and the done count. Callbacks find each processor's state by p.ID().
// The goroutines then hand off only when they start and finish. The
// script issues exactly the operations the closure loop below would,
// in the same order with the same RNG draws, so results are
// bit-identical (the determinism suite pins every lock against its
// closure twin, which runs that loop).
//
// Every other run takes the closure loop, which reaches the same lock
// scripts through Acquire and Release: runs under a fault plan
// (machine.Config.Faults; its step cap is Config.MaxSteps), bounded
// runs, and locks defined outside this package. Progress lives in host
// arrays indexed by processor, because the body is the machine's
// recovery entry point: a reborn processor re-enters it with fresh
// proc-local state and resumes where its dead incarnation left off,
// and each rebirth's time to its first acquisition is measured. The
// mutual-exclusion check tracks the host-side holder and its
// incarnation: an acquire that finds a live same-incarnation holder is
// a violation, while one that reclaims the lock from a crashed holder,
// or from a holder that died and was reborn since, is an orphaned
// acquisition — the reclaim the resilient locks exist to make.
//
// A plan switches on the rest of fault mode: a run cut off by the step
// limit or wedged in deadlock reports its Outcome instead of an error,
// and a FencedLock's critical section issues one guarded write to a
// scratch word, so a usurped holder's suppressed writes are counted.
// CheckMutex's lost-update count assumes no holder dies inside its
// critical section, and is skipped for a run that did not complete.
func RunLockIn(pool *machine.Pool, cfg machine.Config, info LockInfo, opts LockOpts) (LockResult, error) {
	cfg = cfg.Defaults()
	m, err := pool.Get(cfg)
	if err != nil {
		return LockResult{}, err
	}
	defer pool.Put(m)
	lock := info.Make(m)

	var counter machine.Addr
	if opts.CheckMutex {
		counter = m.AllocShared(1)
	}
	var bounded BoundedLock
	if opts.Budget > 0 {
		bounded, _ = lock.(BoundedLock)
	}
	var fenced FencedLock
	var scratch machine.Addr
	if cfg.Faults != nil {
		if fenced, _ = lock.(FencedLock); fenced != nil {
			scratch = m.AllocShared(1)
		}
	}

	procs := cfg.Procs
	res := LockResult{Lock: info.Name, Topo: cfg.Topo, Procs: procs, AcqPerProc: make([]uint64, procs)}
	done := res.AcqPerProc
	tries := make([]int, procs)
	rb := newRebirths(m)
	holder, holderInc := -1, 0 // host-side: processor inside the CS, -1 when free
	violations := 0
	var records []grantRecord

	// more is the loop-top test: whether p makes another attempt.
	more := func(p *machine.Proc) bool {
		me := p.ID()
		if opts.Duration > 0 {
			if p.Now() >= opts.Duration {
				return false
			}
		} else if int(done[me]) >= opts.Iters {
			return false
		}
		return opts.MaxAttempts <= 0 || tries[me] < opts.MaxAttempts
	}
	// Host-side bracket check: the simulator interleaves only at yield
	// points, so the recorded holder detects any overlap exactly.
	enterCS := func(p *machine.Proc, enq sim.Time) {
		me := p.ID()
		if holder >= 0 {
			switch {
			case m.Crashed(holder) || m.Incarnation(holder) != holderInc:
				res.Orphaned++
			case holder != me:
				violations++
			}
		}
		holder, holderInc = me, m.Incarnation(me)
		res.Acquisitions++
		rb.worked(p)
		if opts.RecordOrder {
			records = append(records, grantRecord{enqueue: enq, grant: p.Now()})
		}
	}
	// A usurped or excised holder may find its claim overwritten;
	// clearing only our own same-incarnation claim keeps the check exact.
	exitCS := func(p *machine.Proc) {
		if me := p.ID(); holder == me && holderInc == m.Incarnation(me) {
			holder = -1
		}
	}
	released := func(p *machine.Proc) { done[p.ID()]++ }

	var body func(p *machine.Proc)
	if sl, ok := lock.(scriptedLock); ok && cfg.Faults == nil && opts.Budget <= 0 {
		enq := make([]sim.Time, procs) // each processor's current attempt's start
		ops := make([]machine.ContOp, 1, 12)
		if opts.Think > 0 {
			ops = append(ops, machine.ContOp{Kind: machine.ContExpDelay, Dur: opts.Think})
		}
		ops = append(ops,
			machine.ContOp{Kind: machine.ContCall, Fn: func(p *machine.Proc) {
				enq[p.ID()] = p.Now()
				tries[p.ID()]++
				res.Attempts++
			}},
			machine.ContOp{Kind: machine.ContSub, Sub: sl.acquireOps},
			machine.ContOp{Kind: machine.ContCall, Fn: func(p *machine.Proc) { enterCS(p, enq[p.ID()]) }})
		if opts.CheckMutex {
			ops = append(ops, machine.ContOp{Kind: machine.ContLoad, Addr: counter})
		}
		if opts.CS > 0 {
			ops = append(ops, machine.ContOp{Kind: machine.ContDelay, Dur: opts.CS})
		}
		if opts.CheckMutex {
			ops = append(ops, machine.ContOp{Kind: machine.ContStoreAcc, Addr: counter, Val: 1})
		}
		ops = append(ops,
			machine.ContOp{Kind: machine.ContCall, Fn: exitCS},
			machine.ContOp{Kind: machine.ContSub, Sub: sl.releaseOps},
			machine.ContOp{Kind: machine.ContCall, Fn: released},
			machine.ContOp{Kind: machine.ContBranch, Branch: toTop})
		end := len(ops)
		ops[0] = machine.ContOp{Kind: machine.ContBranch, Branch: func(p *machine.Proc, _ machine.Word) int {
			if more(p) {
				return 1
			}
			return end
		}}
		body = func(p *machine.Proc) {
			rb.enter(p)
			p.RunScript(ops)
		}
	} else {
		body = func(p *machine.Proc) {
			me := p.ID()
			rng := p.RNG()
			rb.enter(p)
			for more(p) {
				if opts.Think > 0 {
					p.Delay(rng.ExpTime(opts.Think))
				}
				enq := p.Now()
				tries[me]++
				res.Attempts++
				if bounded != nil {
					if !bounded.AcquireWithin(p, opts.Budget) {
						res.Timeouts++
						continue
					}
				} else {
					lock.Acquire(p)
				}
				enterCS(p, enq)
				if opts.CheckMutex {
					v := p.Load(counter)
					if opts.CS > 0 {
						p.Delay(opts.CS)
					}
					p.Store(counter, v+1)
				} else if opts.CS > 0 {
					p.Delay(opts.CS)
				}
				if fenced != nil && !fenced.GuardedStore(p, scratch, machine.Word(me+1)) {
					res.StaleWrites++
				}
				exitCS(p)
				lock.Release(p)
				released(p)
			}
		}
	}

	runErr := m.Run(body)
	if res.Resilience, err = settle(m, cfg, rb, runErr); err != nil {
		return LockResult{}, fmt.Errorf("%s: %w", runLabel("lock", info.Name, cfg), err)
	}
	if violations > 0 {
		return LockResult{}, fmt.Errorf("%s violated mutual exclusion %d times among live processors", runLabel("lock", info.Name, cfg), violations)
	}
	if opts.CheckMutex && res.Outcome == OutcomeOK {
		if got := m.Peek(counter); uint64(got) != res.Acquisitions {
			return LockResult{}, fmt.Errorf("%s lost updates: counter=%d, acquisitions=%d", runLabel("lock", info.Name, cfg), got, res.Acquisitions)
		}
	}

	st := m.Stats()
	res.Cycles = st.Cycles
	res.Stats = st
	if res.Acquisitions > 0 {
		// System-level time per acquisition (elapsed cycles over total
		// acquisitions), the 1991 papers' metric: under full contention
		// the lock system completes one critical section per
		// (CS + hand-off) regardless of P, so scalable locks plot flat
		// and traffic-bound locks climb.
		res.CyclesPerAcq = float64(st.Cycles) / float64(res.Acquisitions)
		res.TrafficPerAcq = float64(st.TrafficFor(cfg.Topo)) / float64(res.Acquisitions)
	}
	if opts.RecordOrder {
		res.FIFOInversions = countInversions(records)
	}
	return res, nil
}

// countInversions counts pairs (i, j) where request i entered Acquire
// strictly before request j but was granted strictly after it. Records
// arrive in grant order (the simulator is single-threaded), so this is
// the number of enqueue-time inversions in that sequence, counted with a
// mergesort in O(n log n).
func countInversions(records []grantRecord) uint64 {
	keys := make([]sim.Time, len(records))
	for i, r := range records {
		keys[i] = r.enqueue
	}
	buf := make([]sim.Time, len(keys))
	return mergeCount(keys, buf)
}

func mergeCount(keys, buf []sim.Time) uint64 {
	n := len(keys)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(keys[:mid], buf[:mid]) + mergeCount(keys[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if keys[i] <= keys[j] {
			buf[k] = keys[i]
			i++
		} else {
			// keys[j] entered earlier than everything left in [i, mid):
			// those were granted before it despite arriving later.
			inv += uint64(mid - i)
			buf[k] = keys[j]
			j++
		}
		k++
	}
	copy(buf[k:], keys[i:mid])
	copy(buf[k+mid-i:], keys[j:])
	copy(keys, buf[:n])
	return inv
}

// BarrierOpts configures a simulated barrier workload.
type BarrierOpts struct {
	Episodes int      // barrier episodes per processor
	Work     sim.Time // mean exponential work per phase per processor
}

// BarrierResult is the outcome of one barrier workload run.
type BarrierResult struct {
	Barrier string
	Topo    topo.Topology
	Procs   int
	// Episodes is the per-processor quota; Completed counts the episodes
	// actually completed across processors and incarnations (Procs times
	// Episodes for every fault-free run).
	Episodes          int
	Completed         uint64
	Cycles            sim.Time
	CyclesPerEpisode  float64
	TrafficPerEpisode float64
	Stats             machine.Stats

	Resilience
	Timeouts uint64 // waits that forced an episode open (barriers with a Timeouts method)
}

// RunBarrierIn executes Episodes barrier episodes per processor with
// optional skewed work between them, on a machine drawn from pool,
// verifying the barrier's safety property: no processor may leave
// episode e before every processor has arrived at episode e.
//
// Under a fault plan (machine.Config.Faults) the loop is the one
// RunLockIn uses: progress survives rebirth, time-to-recovery runs
// from each revival to the reborn processor's next completed episode,
// a degraded ending is an Outcome, and a processor done with its
// episodes leaves a barrier that can Leave (a reconfigurable barrier
// would otherwise make a recovered straggler wait on it forever). Three
// things then legitimately release an episode before every arrival was
// counted, and excuse the early-release check: the barrier forced an
// episode open on its wait budget (Timeouts), a barrier that can Leave
// ran on without a crashed member, or a processor was reborn out of the
// middle of a Wait — the barrier counted the dead incarnation's
// arrival, so the reborn one's arrival at the same episode shifts the
// host's count by one.
func RunBarrierIn(pool *machine.Pool, cfg machine.Config, info BarrierInfo, opts BarrierOpts) (BarrierResult, error) {
	cfg = cfg.Defaults()
	m, err := pool.Get(cfg)
	if err != nil {
		return BarrierResult{}, err
	}
	defer pool.Put(m)
	bar := info.Make(m)
	var leaver interface{ Leave(*machine.Proc) }
	if cfg.Faults != nil {
		leaver, _ = bar.(interface{ Leave(*machine.Proc) })
	}

	procs := cfg.Procs
	res := BarrierResult{Barrier: info.Name, Topo: cfg.Topo, Procs: procs, Episodes: opts.Episodes}
	arrived := make([]int, opts.Episodes) // host-side arrival counts
	done := make([]int, procs)            // episodes completed, surviving rebirth
	waiting := make([]bool, procs)        // inside Wait
	rb := newRebirths(m)
	torn := false
	violations := 0

	body := func(p *machine.Proc) {
		me := p.ID()
		rng := p.RNG()
		if rb.enter(p) && waiting[me] {
			torn = true
		}
		for done[me] < opts.Episodes {
			if opts.Work > 0 {
				p.Delay(rng.ExpTime(opts.Work))
			}
			e := done[me]
			arrived[e]++
			waiting[me] = true
			bar.Wait(p)
			waiting[me] = false
			if arrived[e] != procs {
				violations++
			}
			done[me]++
			res.Completed++
			rb.worked(p)
		}
		if leaver != nil {
			leaver.Leave(p)
		}
	}

	runErr := m.Run(body)
	if res.Resilience, err = settle(m, cfg, rb, runErr); err != nil {
		return BarrierResult{}, fmt.Errorf("%s: %w", runLabel("barrier", info.Name, cfg), err)
	}
	if tm, ok := bar.(interface{ Timeouts() uint64 }); ok {
		res.Timeouts = tm.Timeouts()
	}
	excused := cfg.Faults != nil && (res.Timeouts > 0 || torn || leaver != nil && res.Crashed > 0)
	if violations > 0 && !excused {
		return BarrierResult{}, fmt.Errorf("%s released %d waiters early", runLabel("barrier", info.Name, cfg), violations)
	}

	st := m.Stats()
	res.Cycles = st.Cycles
	res.Stats = st
	if opts.Episodes > 0 {
		res.CyclesPerEpisode = float64(st.Cycles) / float64(opts.Episodes)
		res.TrafficPerEpisode = float64(st.TrafficFor(cfg.Topo)) / float64(opts.Episodes)
	}
	return res, nil
}

// Outcome classifies how a run under a fault plan ended. Degraded
// outcomes (step limit, deadlock) are data, not errors: a crashed holder
// wedging its lock word is exactly the failure mode the resilience
// sweeps measure, so the runners report how far the survivors got
// instead of aborting the sweep. A fault-free run always reports
// OutcomeOK; one that does not complete is an error.
type Outcome int

const (
	// OutcomeOK: every non-crashed processor completed its iterations.
	OutcomeOK Outcome = iota
	// OutcomeStepLimit: the run hit the engine's event budget — the
	// survivors were still burning cycles (usually spinning on a word a
	// crashed processor holds) when the simulation was cut off.
	OutcomeStepLimit
	// OutcomeDeadlock: every live processor was blocked with no pending
	// events — survivors parked forever behind a crashed processor.
	OutcomeDeadlock
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeStepLimit:
		return "steplimit"
	case OutcomeDeadlock:
		return "deadlock"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Resilience is how a run fared under its fault plan; every field but
// Outcome is zero without crashes.
type Resilience struct {
	Outcome   Outcome
	Crashed   int // processors the plan crashed at any point
	Recovered int // crashed processors that were reborn

	// Recoveries counts rebirths that reached useful work again (a lock
	// acquisition, a barrier episode), and RecoveryCycles sums, over
	// those rebirths, the cycles from the revival instant to that first
	// unit of work. Their ratio is the mean time-to-recovery.
	Recoveries     uint64
	RecoveryCycles sim.Time
}

// settle classifies how m.Run ended and tallies the run's crashes and
// rebirths. Without a fault plan every run error is returned; under
// one, the step limit and deadlock become Outcomes and only other
// errors are returned.
func settle(m *machine.Machine, cfg machine.Config, rb *rebirths, runErr error) (Resilience, error) {
	r := Resilience{Recoveries: rb.count, RecoveryCycles: rb.cycles}
	switch {
	case runErr == nil:
	case cfg.Faults != nil && errors.Is(runErr, sim.ErrStepLimit):
		r.Outcome = OutcomeStepLimit
	case cfg.Faults != nil && errors.Is(runErr, machine.ErrDeadlock):
		r.Outcome = OutcomeDeadlock
	default:
		return Resilience{}, runErr
	}
	for i := 0; i < cfg.Procs; i++ {
		if m.Crashed(i) || m.Incarnation(i) > 0 {
			r.Crashed++
		}
		if m.Incarnation(i) > 0 {
			r.Recovered++
		}
	}
	return r, nil
}

// runLabel names a run in errors: the algorithm, and the plan if any.
func runLabel(kind, name string, cfg machine.Config) string {
	if cfg.Faults != nil {
		return fmt.Sprintf("%s %q under plan %q", kind, name, cfg.Faults.Name())
	}
	return fmt.Sprintf("%s %q", kind, name)
}

// rebirths tracks each processor's entries into its program body, the
// machine's recovery entry point, and measures time-to-recovery: the
// cycles from each revival to the reborn processor's first unit of
// useful work.
type rebirths struct {
	m        *machine.Machine
	lastInc  []int      // incarnation each processor last entered under
	rebornAt []sim.Time // revival instant awaiting its first unit of work, or -1
	count    uint64
	cycles   sim.Time
}

func newRebirths(m *machine.Machine) *rebirths {
	r := &rebirths{m: m, lastInc: make([]int, m.Procs()), rebornAt: make([]sim.Time, m.Procs())}
	for i := range r.rebornAt {
		r.rebornAt[i] = -1
	}
	return r
}

// enter records p entering its body and reports whether this entry is a
// rebirth.
func (r *rebirths) enter(p *machine.Proc) bool {
	me := p.ID()
	inc := r.m.Incarnation(me)
	if inc == r.lastInc[me] {
		return false
	}
	r.lastInc[me], r.rebornAt[me] = inc, p.Now()
	return true
}

// worked records a unit of useful work by p, closing its open rebirth
// interval if it has one.
func (r *rebirths) worked(p *machine.Proc) {
	if at := r.rebornAt[p.ID()]; at >= 0 {
		r.cycles += p.Now() - at
		r.count++
		r.rebornAt[p.ID()] = -1
	}
}

// UncontendedLockCostIn measures the latency in cycles of a single
// acquire/release pair with no contention whatsoever (T1), on a machine
// drawn from pool (see machine.Pool): the T1 table and its benchmark
// measure one acquire/release pair per machine, so without pooling the
// dominant cost of the sweep is machine construction, not simulation.
func UncontendedLockCostIn(pool *machine.Pool, tp topo.Topology, info LockInfo) (acquireRelease sim.Time, traffic uint64, err error) {
	m, err := pool.Get(machine.Config{Procs: 1, Topo: tp})
	if err != nil {
		return 0, 0, err
	}
	defer pool.Put(m)
	lock := info.Make(m)
	var start, end sim.Time
	var trafBefore uint64
	err = m.Run(func(p *machine.Proc) {
		// Warm the caches with one throwaway pair.
		lock.Acquire(p)
		lock.Release(p)
		trafBefore = m.Stats().TrafficFor(tp)
		start = p.Now()
		lock.Acquire(p)
		lock.Release(p)
		end = p.Now()
	})
	if err != nil {
		return 0, 0, err
	}
	return end - start, m.Stats().TrafficFor(tp) - trafBefore, nil
}
