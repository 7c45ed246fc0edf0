// Package machine models a 1991-class shared-memory multiprocessor with
// cycle-level timing, suitable for measuring synchronization algorithms the
// way the ICPP/TOCS literature of that era did: elapsed cycles and
// interconnect transactions per operation.
//
// The shape of the memory system comes from a composable topology
// (internal/topo): home-module mapping, hop costs, poll spacing, and
// traffic classification are all topology properties, while this
// package supplies the mechanism — the coherence protocol, one memory
// module per processor with its port occupancy, and deterministic
// event scheduling. The canonical instances are:
//
//   - topo.Bus: a symmetric bus-based multiprocessor with per-processor
//     caches kept consistent by a write-invalidate protocol (Sequent
//     Symmetry class). The interesting metric is bus transactions.
//   - topo.NUMA: a flat distributed-memory machine without coherent
//     caches, where each processor owns a memory module and remote
//     references traverse an interconnection network (BBN Butterfly
//     class). The interesting metric is remote references, and spinning
//     on remote words is modeled as periodic polling.
//   - topo.Cluster: a two-level cluster-NUMA machine — cheap
//     intra-cluster hops, expensive inter-cluster traversals.
//
// topo.Ideal (unit latency, no contention) exists for unit tests.
//
// Processors execute ordinary Go closures against the Proc API; every
// memory operation advances the virtual clock through the deterministic
// event engine in internal/sim, so runs are exactly reproducible.
package machine

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Word is the machine word. All simulated memory holds Words.
type Word uint64

// Addr indexes a word in simulated memory.
type Addr int32

// NilAddr is an out-of-band address used by algorithms to mean "no node".
const NilAddr Addr = -1

// PtrWord encodes an address as a non-zero Word so that Word(0) can mean
// "nil pointer" in simulated data structures.
func PtrWord(a Addr) Word { return Word(a) + 1 }

// WordPtr decodes a Word previously produced by PtrWord. Word(0) decodes
// to NilAddr.
func WordPtr(w Word) Addr {
	if w == 0 {
		return NilAddr
	}
	return Addr(w - 1)
}

// Config describes a machine. Zero fields take defaults from Defaults.
type Config struct {
	Procs int // number of processors (each topology declares its own ceiling)
	// Topo is the memory-system topology; nil defaults to topo.Ideal.
	// The canonical instances (topo.Bus, topo.NUMA, topo.Cluster) are
	// registered in topo.Registry alongside any custom shapes.
	Topo topo.Topology

	// Interconnect timing, in cycles (the A1 ablation varies both).
	// Topologies price their hops relative to RemoteMem (see
	// topo.Timing), so it applies across machine shapes. The timings no
	// experiment varies are the constants cacheHit, localMem and
	// pollInterval below.
	BusLatency sim.Time // full bus transaction; default 20
	RemoteMem  sim.Time // reference network traversal for remote refs; default 12

	// Heap sizes, in words. The defaults fit every algorithm at the
	// 1,024-processor ceiling with room to spare: the largest shared
	// need is ~2P+1 words (reconf's arrive and dead arrays, ctr-combine's
	// tree) and the largest local need 20 words per processor
	// (dissemination's and tournament's 2·log2 P flags). Every word
	// costs the machine 16 bytes or more whether a cell touches it or
	// not, so the defaults stay near those needs.
	SharedWords int // size of the shared heap; default 1<<12
	LocalWords  int // per-module local region; default 1<<8

	Seed     uint64 // RNG seed; default 1
	MaxSteps uint64 // event limit; default sim.DefaultMaxSteps

	// NoSpinWindows disables cross-processor spin windows (window.go).
	// Simulated results are bit-identical either way — the switch
	// exists for the determinism A/B tests and for host-side
	// performance comparisons.
	NoSpinWindows bool

	// Faults attaches a deterministic fault plan (processor stalls,
	// crashes and restarts, module degradation; see internal/fault and
	// fault.go in this package). Nil means a fault-free machine with
	// behavior bit-identical to builds predating fault support. A plan
	// that applies to the machine turns spin windows off. The plan is
	// treated as read-only and may be shared across machines.
	Faults *fault.Plan
}

// The fixed timings, in cycles.
const (
	cacheHit     sim.Time = 1  // cache hit (coherent topologies)
	localMem     sim.Time = 2  // local module access
	pollInterval sim.Time = 36 // base spacing between remote spin polls
	// suspectAfter is the heartbeat failure detector's suspicion
	// threshold: a processor silent that long is suspected dead until
	// it speaks again (see Proc.Suspects). It equals the longest stall
	// the standard fault sweeps draw (their StallMax), so only genuine
	// crashes trip the detector there; a plan whose stalls run longer
	// produces false positives.
	suspectAfter sim.Time = 2000
)

// Defaults fills in zero fields and returns the completed config.
func (c Config) Defaults() Config {
	if c.Procs == 0 {
		c.Procs = 1
	}
	if c.Topo == nil {
		c.Topo = topo.Ideal
	}
	if c.BusLatency == 0 {
		c.BusLatency = 20
	}
	if c.RemoteMem == 0 {
		c.RemoteMem = 12
	}
	if c.SharedWords == 0 {
		c.SharedWords = 1 << 12
	}
	if c.LocalWords == 0 {
		c.LocalWords = 1 << 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) validate() error {
	if c.Procs < 1 {
		return errors.New("machine: need at least one processor")
	}
	// The processor ceiling is a topology property: each topology
	// declares its own (the bus machine's 64 comes from the coherence
	// directory's sharer bitmask).
	if max := c.Topo.MaxProcs(); max > 0 && c.Procs > max {
		return fmt.Errorf("machine: topology %s supports at most %d processors", c.Topo.Name(), max)
	}
	// Independent of what a topology declares, the snooping-cache
	// implementation itself cannot track more than 64 sharers per word.
	if c.Topo.Discipline() == topo.SnoopingBus && c.Procs > 64 {
		return fmt.Errorf("machine: coherent topology %s exceeds the 64-sharer bitmask", c.Topo.Name())
	}
	if c.Procs > 1024 {
		return errors.New("machine: at most 1024 processors")
	}
	return nil
}

// ProcStats are per-processor counters.
type ProcStats struct {
	Loads      uint64
	Stores     uint64
	RMWs       uint64
	BusTxns    uint64 // coherent topologies: transactions this processor caused
	RemoteRefs uint64 // module topologies: remote references this processor made
}

// Stats is a machine-wide counter snapshot.
type Stats struct {
	Cycles sim.Time // virtual time at the end of the run
	Events uint64   // engine events processed
	// InlineOps counts operations retired on the processor-side fast
	// path with no engine event and no goroutine handoff. A host-side
	// efficiency metric: it has no effect on simulated time or traffic.
	InlineOps uint64
	// WindowOps counts spin probes popped in batches by cross-processor
	// spin windows (window.go). Like InlineOps it is a host-side
	// efficiency metric with no effect on simulated time, traffic, or
	// even the Events count (windowed pops are charged to the step
	// counter exactly as if they had fired one by one).
	WindowOps uint64
	// The dispatch routes: every processor dispatch the drive loop
	// delivers takes one of three (stale and stall-deferred deliveries
	// take none). SpinDispatches advanced a spin wait that is still
	// waiting (spin.go); InlineDispatches advanced a continuation script
	// in place (cont.go); GoroutineDispatches resumed a processor whose
	// program runs in its goroutine. Handoffs counts the baton sends:
	// each time a program resumes in a goroutine other than the one
	// popping (after a goroutine dispatch, or a spin or script that
	// completed), and each rebirth. A send is a channel send and a
	// goroutine switch. All four are host-side efficiency metrics with
	// no effect on simulated time, traffic, or the Events count. A
	// scripted primitive and its closure twin (which issues the same ops
	// from its goroutine) differ in InlineDispatches, GoroutineDispatches
	// and Handoffs by design; spin windows move WindowOps pops out of
	// SpinDispatches.
	SpinDispatches      uint64
	InlineDispatches    uint64
	GoroutineDispatches uint64
	Handoffs            uint64
	Loads               uint64
	Stores              uint64
	RMWs                uint64
	BusTxns             uint64
	RemoteRefs          uint64
	PerProc             []ProcStats
}

// TrafficFor returns the topology's headline interconnect transaction
// count: bus transactions on a coherent machine, remote references on a
// module machine, and the total operation count on uniform memory
// (where every access is alike).
func (s Stats) TrafficFor(t topo.Topology) uint64 {
	switch t.Discipline() {
	case topo.SnoopingBus:
		return s.BusTxns
	case topo.Modules:
		return s.RemoteRefs
	default:
		return s.Loads + s.Stores + s.RMWs
	}
}

// Machine is a simulated multiprocessor. Construct with New, allocate
// simulated memory, then Run programs.
type Machine struct {
	cfg Config
	eng *sim.Engine
	rng *sim.RNG

	// Topology caches, refreshed by Reset: the topology itself, its
	// access discipline, and the timing parameters its cost methods
	// take. Hot paths read these instead of chasing cfg.
	topo topo.Topology
	disc topo.Discipline
	tm   topo.Timing

	mem     []Word
	sharers []uint64 // coherent: bitmask of caching processors, per word
	owner   []int16  // coherent: processor index + 1 holding the word exclusive, or 0

	busFreeAt sim.Time
	modFreeAt []sim.Time // modules: per-module port availability, one module per processor

	// Watchers form one intrusive FIFO list per word: watchHead/watchTail
	// index the first and last watching processor and each Proc carries
	// the next link. Links are stored as processor index + 1, so the
	// zero value means "empty" and the arrays need no initialization
	// pass. A processor watches at most one address at a time, so the
	// per-proc link is unambiguous and parking/waking never touches the
	// allocator or a map.
	watchHead []int32
	watchTail []int32

	procs []*Proc
	live  int
	// reviving counts crashed processors with a pending EvRecover: the
	// run must not terminate at live==0 while a rebirth is armed, or
	// the recovered processor would never get to run.
	reviving int

	// flt is the compiled fault plan (fault.go), nil on fault-free
	// machines — every fault query site guards on that nil, so the
	// fault-free hot path is untouched.
	flt *machineFaults

	// Cross-processor spin-window state (window.go):
	// spinStreak governs the attempt trigger (negative while backing
	// off after a failed attempt); winMask holds one eligibility bit
	// per processor; winSet is reusable scratch for the detector.
	winEnabled bool // set by Reset: windows possible on this config at all
	spinStreak int
	winCount   int
	winMask    []uint64
	winSet     []sim.WindowEvent

	nextShared Addr
	nextLocal  []Addr

	stats       Stats
	done        chan error // termination signal from the drive loop to RunEach
	tearingDown bool       // set by RunEach before waking parked processors to unwind
	ran         bool
	progErr     error // first panic raised by a simulated program
}

// New builds a machine from cfg (zero fields defaulted).
func New(cfg Config) (*Machine, error) {
	m := &Machine{
		eng:  sim.NewEngine(),
		rng:  sim.NewRNG(1),
		done: make(chan error, 1),
	}
	if err := m.Reset(cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset returns the machine to the state New(cfg) would produce while
// reusing every allocation that still fits: the event queue, the memory
// and watcher arrays, the coherence metadata, the processor structs and
// their resume channels, and the per-processor RNGs (re-derived, so the
// streams are bit-identical to a fresh machine's). Sweeps that run many
// (configuration × algorithm) cells draw machines from a Pool and Reset
// them instead of allocating a machine per cell, which makes the
// steady-state cell cost allocation-free up to the algorithm's own
// bookkeeping. Only the configured extent of each array is cleared, and
// arrays grow monotonically with the largest configuration seen.
func (m *Machine) Reset(cfg Config) error {
	cfg = cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return err
	}
	m.cfg = cfg
	m.topo = cfg.Topo
	m.disc = cfg.Topo.Discipline()
	m.tm = topo.Timing{RemoteMem: cfg.RemoteMem, PollInterval: pollInterval}
	total := cfg.SharedWords + cfg.Procs*cfg.LocalWords

	m.eng.Reset()
	m.eng.SetMaxSteps(cfg.MaxSteps) // zero restores the engine default
	m.rng.Reseed(cfg.Seed)

	m.mem = resetSlice(m.mem, total)
	m.watchHead = resetSlice(m.watchHead, total)
	m.watchTail = resetSlice(m.watchTail, total)
	if m.disc == topo.SnoopingBus {
		m.sharers = resetSlice(m.sharers, total)
		m.owner = resetSlice(m.owner, total)
	}
	if m.disc == topo.Modules {
		m.modFreeAt = resetSlice(m.modFreeAt, cfg.Procs)
	}
	m.busFreeAt = 0

	// Grow the processor set as needed; shrinking just reslices (the
	// spare Proc structs stay in the backing array for later reuse).
	m.procs = resizeKeep(m.procs, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		p := m.procs[i]
		if p == nil {
			p = &Proc{id: i, m: m, rng: new(sim.RNG), resume: make(chan struct{})}
			m.procs[i] = p
		}
		m.rng.DeriveInto(uint64(i), p.rng)
		p.localNow = 0
		p.watchNext = 0
		p.spin = spinState{}
		p.cont = contState{}
		p.finished = false
		p.crashed = false
		p.incarnation = 0
		p.reincarnate = false
		p.blockedOn = ""
		p.blockedAddr = 0
		p.stats = ProcStats{}
	}
	m.live = 0
	m.reviving = 0

	m.flt = nil
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		// Compiling per Reset keeps the plan portable across machine
		// shapes; the compile allocates, but only faulted configs pay it.
		m.flt = compileFaults(cfg.Faults, cfg.Procs)
	}

	m.nextShared = 0
	m.nextLocal = resetSlice(m.nextLocal, cfg.Procs)
	for i := range m.nextLocal {
		m.nextLocal[i] = Addr(cfg.SharedWords + i*cfg.LocalWords)
	}

	m.stats = Stats{}
	// A faulted machine forms no windows, so no fault kind needs a
	// window-exactness argument.
	m.winEnabled = !cfg.NoSpinWindows && m.disc != topo.Uniform && m.flt == nil
	m.spinStreak = 0
	m.winCount = 0
	m.winMask = resetSlice(m.winMask, (cfg.Procs+63)/64)
	m.tearingDown = false
	m.ran = false
	m.progErr = nil
	return nil
}

// resetSlice returns s resized to n elements, all zero, reusing the
// backing array when it is large enough.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// resizeKeep returns s resized to n elements, preserving existing
// values (grown slots are zero). Used for the processor set, whose
// structs are reused across Resets.
func resizeKeep[T any](s []T, n int) []T {
	if cap(s) < n {
		grown := make([]T, n)
		copy(grown, s)
		return grown
	}
	return s[:n]
}

// Config returns the completed configuration.
func (m *Machine) Config() Config { return m.cfg }

// Topo returns the machine's topology.
func (m *Machine) Topo() topo.Topology { return m.topo }

// Procs returns the processor count.
func (m *Machine) Procs() int { return m.cfg.Procs }

// AllocShared reserves n words in the shared heap and returns the base
// address. Memory is zeroed. Panics when the heap is exhausted, since
// that is a configuration error in an experiment, not a runtime condition.
func (m *Machine) AllocShared(n int) Addr {
	if n <= 0 {
		panic("machine: AllocShared with non-positive size")
	}
	base := m.nextShared
	if int(base)+n > m.cfg.SharedWords {
		panic(fmt.Sprintf("machine: shared heap exhausted (%d words)", m.cfg.SharedWords))
	}
	m.nextShared += Addr(n)
	return base
}

// AllocLocal reserves n words in module p (the local region attached to
// processor p). On coherent topologies locality has no timing effect
// but placement is still tracked, so algorithms are written once.
func (m *Machine) AllocLocal(p, n int) Addr {
	if p < 0 || p >= m.cfg.Procs {
		panic("machine: AllocLocal processor out of range")
	}
	if n <= 0 {
		panic("machine: AllocLocal with non-positive size")
	}
	base := m.nextLocal[p]
	limit := Addr(m.cfg.SharedWords + (p+1)*m.cfg.LocalWords)
	if base+Addr(n) > limit {
		panic(fmt.Sprintf("machine: local heap of processor %d exhausted (%d words)", p, m.cfg.LocalWords))
	}
	m.nextLocal[p] += Addr(n)
	return base
}

// home returns the memory module owning addr: local regions belong to
// their module; the shared region's mapping is a topology property
// (interleaved across modules on every canonical instance).
func (m *Machine) home(a Addr) int {
	if int(a) >= m.cfg.SharedWords {
		return (int(a) - m.cfg.SharedWords) / m.cfg.LocalWords
	}
	return m.topo.HomeModule(int(a), m.cfg.Procs)
}

// Peek reads simulated memory without timing effects (host-side checks).
func (m *Machine) Peek(a Addr) Word { return m.mem[a] }

// Poke writes simulated memory without timing effects. Only valid before
// Run starts (initialization) — it does not wake watchers.
func (m *Machine) Poke(a Addr, v Word) {
	if m.ran {
		panic("machine: Poke after Run started")
	}
	m.mem[a] = v
}

// Stats returns a snapshot of the machine counters. Valid after Run.
func (m *Machine) Stats() Stats {
	s := m.stats
	s.Cycles = m.eng.Now()
	s.Events = m.eng.Steps()
	s.PerProc = make([]ProcStats, len(m.procs))
	for i, p := range m.procs {
		s.PerProc[i] = p.stats
		s.Loads += s.PerProc[i].Loads
		s.Stores += s.PerProc[i].Stores
		s.RMWs += s.PerProc[i].RMWs
	}
	return s
}

// Run executes the same program body on every processor (SPMD style; the
// body distinguishes processors via p.ID()) and drives the simulation to
// completion. It returns an error on livelock (event limit) or deadlock
// (all processors blocked with no pending events).
func (m *Machine) Run(body func(p *Proc)) error {
	bodies := make([]func(p *Proc), m.cfg.Procs)
	for i := range bodies {
		bodies[i] = body
	}
	return m.RunEach(bodies)
}

// RunEach executes one program per processor. len(bodies) must equal the
// processor count.
//
// The run loop is baton-passing: there is no central engine goroutine.
// Exactly one goroutine is runnable at a time — the processor holding
// the baton. When it blocks, it steps the engine itself until an event
// dispatches another processor, hands the baton over with a single
// channel send, and parks. A simulated context switch back into a
// program body therefore costs at most one goroutine handoff — and
// usually none: an operation retired on the inline fast path schedules
// no event at all, machine-driven spin waits (spin.go) and scripted
// continuations (cont.go) advance inside whichever goroutine pops
// their dispatches, and the baton moves only when a processor's
// *program* must resume (wait satisfied, script finished, recovery
// re-entry).
func (m *Machine) RunEach(bodies []func(p *Proc)) error {
	if len(bodies) != m.cfg.Procs {
		return fmt.Errorf("machine: RunEach needs %d bodies, got %d", m.cfg.Procs, len(bodies))
	}
	if m.ran {
		return errors.New("machine: Run called twice")
	}
	m.ran = true
	m.live = m.cfg.Procs

	// Crash events go in before any program event: at their instant
	// they carry the smallest sequence numbers, so a crash at time t
	// materializes before anything else scheduled at t — including the
	// t=0 start dispatches — and, while pending, bounds every
	// processor's inline lookahead at t.
	if m.flt != nil {
		for pid, at := range m.flt.crashAt {
			if at >= 0 {
				m.eng.AtEvent(at, sim.EvFault, int32(pid), 0)
			}
		}
	}

	var wg sync.WaitGroup
	for i, p := range m.procs {
		wg.Add(1)
		body := bodies[i]
		proc := p
		go func() {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil || r == abortSentinel {
					return
				}
				// A panic in the simulated program (bad address, logic
				// error) surfaces as a Run error instead of killing the
				// process. The panicking processor holds the baton, so
				// it must keep driving the remaining processors.
				if m.progErr == nil {
					m.progErr = fmt.Errorf("machine: processor %d panicked: %v", proc.id, r)
				}
				proc.finished = true
				m.live--
				m.drive(proc)
			}()
			// Crash recovery re-enters the body: each revival unwinds the
			// dead incarnation's stack with the reincarnate sentinel and
			// restarts the program at the recovery entry point — the top
			// of the body — holding the baton (the EvRecover delivery
			// handed it over), so only the first incarnation waits.
			wait := true
			for runBody(proc, body, wait) {
				wait = false
			}
			// The body may have finished ahead of the engine clock on the
			// inline fast path; drain that run-ahead through one event so
			// the final Cycles count is exact.
			proc.syncClock()
			proc.finished = true
			m.live--
			m.drive(proc)
		}()
		// Stagger start events by scheduling order; all at t=0.
		m.eng.AtEvent(0, sim.EvDispatch, int32(i), 0)
	}

	// Kick off: hand the baton to the first dispatched processor, then
	// wait for a drive loop to signal termination.
	m.drive(nil)
	err := <-m.done
	if m.progErr != nil {
		err = m.progErr
	} else if err == nil && m.live > 0 {
		err = m.deadlockError()
	}
	// Unwind any still-parked processor goroutines. Every unfinished
	// processor is parked on its resume channel (the baton holder was
	// the one that signaled done, and it parks — or exits — right after).
	m.tearingDown = true
	for _, p := range m.procs {
		if !p.finished {
			p.resume <- struct{}{}
		}
	}
	wg.Wait()
	return err
}

// drive steps the engine on the calling goroutine until an event
// dispatches p (p resumes its program), handing the baton to any other
// processor dispatched along the way. A dispatch is routed by the woken
// processor's state: one inside a spin wait or a continuation script
// has its state machine or script advanced in place — executing its
// operations without waking its goroutine — and the baton moves only
// when the spin or script completes. When the queue drains or the work
// budget trips, drive signals termination on m.done; a finished (or
// nil, for kickoff) p then returns so its goroutine can exit, while a
// live p parks for teardown.
func (m *Machine) drive(p *Proc) {
	for {
		if m.live == 0 && m.reviving == 0 {
			// Nothing left that can run: every processor finished or
			// crashed with no rebirth armed. Don't drain the stale
			// remainder of the queue — popping a crash or deferred
			// wakeup scheduled beyond the last real event would advance
			// the clock and inflate the run's Cycles past the end of the
			// actual computation.
			m.done <- nil
			m.parkOrExit(p)
			return
		}
		if m.winEnabled && m.spinStreak >= 0 {
			// The next event being an *eligible* spin probe is the
			// cheap tell that a storm may be in flight: scan for a
			// window before replaying it (window.go). Any other next
			// event would end the set before it began, so a scan
			// cannot pay off. A negative streak is the
			// post-failure backoff — it climbs back to zero as
			// ineligible probes replay per-event; winEnabled is
			// decided once per Reset (NoSpinWindows, the Ideal model,
			// a fault plan). A processor whose mask bit is set has no
			// pending event but its probe, so a dispatch of it is one.
			if k, a0, a1, ok := m.eng.NextPeek(); ok && k == sim.EvDispatch && m.winMaskBit(a0) {
				m.tryWindow(Addr(a1))
			}
		}
		kind, arg0, arg1, fired := m.eng.StepPayload()
		if !fired {
			m.done <- nil // queue drained: completion, or deadlock if live > 0
			m.parkOrExit(p)
			return
		}
		if m.eng.Exhausted() {
			m.done <- fmt.Errorf("%w after %d events at t=%d", sim.ErrStepLimit, m.eng.Steps(), m.eng.Now())
			m.parkOrExit(p)
			return
		}
		var q *Proc
		switch kind {
		case sim.EvDispatch:
			q = m.procs[arg0]
			if q.finished || q.crashed {
				m.spinStreak = 0
				continue // stale wakeup: the processor returned or died
			}
			if m.flt != nil {
				if e := m.flt.stallEnd(int(arg0), m.eng.Now()); e > m.eng.Now() {
					// The processor is stalled: defer this delivery to the
					// end of the stall window.
					m.eng.AtEvent(e, kind, arg0, arg1)
					continue
				}
			}
			q.localNow = m.eng.Now()
			if q.spin.active && !m.spinAdvance(q) {
				m.stats.SpinDispatches++
				m.spinStreak++
				continue // still waiting: probes ran here, no handoff
			}
			m.spinStreak = 0
			if q.cont.active {
				// The processor is inside a continuation script
				// (cont.go): run its next ops here, in the popping
				// goroutine, and resume it only once the script ends.
				m.stats.InlineDispatches++
				if !m.contAdvance(q) {
					continue // script still running: ops ran here, no handoff
				}
			} else {
				m.stats.GoroutineDispatches++
			}
		case sim.EvFault:
			// Materialize a processor crash. The processor's live count
			// is surrendered here; its pending events are dropped on
			// delivery above, and any word it holds stays held. Without
			// a restart the crash is permanent and the goroutine unwinds
			// at teardown; with one, the rebirth is armed here — only
			// when the crash actually materialized, so a crash drawn
			// past the run's natural end never drags a recovery (or the
			// stale queue remainder) into the run either.
			r := m.procs[arg0]
			if !r.finished && !r.crashed {
				r.crashed = true
				m.live--
				if at := m.flt.restartAt[arg0]; at >= 0 {
					m.eng.AtEvent(at, sim.EvRecover, arg0, 0)
					m.reviving++
				}
			}
			continue
		case sim.EvRecover:
			// Rebirth a crashed processor at the recovery entry point.
			// Nothing is released on its behalf — words the dead
			// incarnation held stay held; reclaiming them is the
			// protocol's problem — but all proc-local machine state
			// (spin machinery, watch registration, pending wakeups, the
			// derived RNG stream) resets as at boot.
			m.reviving--
			r := m.procs[arg0]
			if r.finished || !r.crashed {
				continue
			}
			m.revive(r)
			if r == p {
				// We ARE the revived processor's goroutine: the crash
				// landed while it held the baton (parked inside its own
				// drive call). Unwind the dead incarnation's stack
				// straight into the recovery entry; runBody keeps the
				// baton and re-enters the program.
				panic(reincarnateSentinel)
			}
			r.reincarnate = true
			q = r // hand the baton to the reborn processor
		}
		if q == p {
			return // our own wakeup: keep running, no handoff at all
		}
		m.stats.Handoffs++
		q.resume <- struct{}{} // pass the baton
		if p == nil || p.finished {
			return
		}
		p.waitBaton() // park until dispatched; the sender set our clock
		return
	}
}

// parkOrExit ends p's participation in a terminated run: a live
// processor parks until RunEach's teardown wakes it (unwinding via the
// abort sentinel), a finished one — or the kickoff caller — just returns.
func (m *Machine) parkOrExit(p *Proc) {
	if p != nil && !p.finished {
		p.waitBaton()
	}
}

// runBody runs one incarnation of a processor's program, reporting
// whether the processor was reborn mid-body. A revival unwinds the
// dead incarnation's stack with the reincarnate sentinel — thrown from
// waitBaton when the baton wake is a rebirth, or from the drive loop
// directly when the crashed processor itself popped its EvRecover —
// and the caller restarts the body at the recovery entry point.
func runBody(p *Proc, body func(*Proc), wait bool) (reborn bool) {
	defer func() {
		if r := recover(); r != nil {
			if r == reincarnateSentinel {
				reborn = true
				return
			}
			panic(r)
		}
	}()
	if wait {
		p.waitBaton() // parked until the engine dispatches us at t=0
	}
	body(p)
	return false
}

// revive resets a crashed processor's machine-local state to its boot
// value at the current instant. The dead incarnation's pending wakeups
// (every EvDispatch addressed to it) are purged so they cannot fire
// into the reborn program, its watcher registration is unlinked, and
// its RNG stream is re-derived from the machine seed — a reborn
// processor draws exactly what its first incarnation drew, which keeps
// recovery runs bit-identical without any extra seed plumbing. The
// per-processor stats are NOT reset: they are physical counters of
// what the hardware did, and they stay deterministic across rebirths.
func (m *Machine) revive(r *Proc) {
	pid := int32(r.id)
	m.eng.PurgePending(func(ev sim.PendingEvent) bool {
		return ev.Kind == sim.EvDispatch && ev.Arg0 == pid
	})
	if r.spin.active {
		m.watchUnlink(r.spin.addr, r.id)
	}
	r.spin = spinState{}
	r.cont = contState{}
	r.watchNext = 0
	r.blockedOn = ""
	r.blockedAddr = 0
	r.crashed = false
	r.localNow = m.eng.Now()
	m.rng.DeriveInto(uint64(r.id), r.rng)
	r.incarnation++
	m.live++
}

// watchUnlink removes processor pid from the intrusive watcher list of
// addr, if registered. Only recovery calls it (normal wakeups consume
// the whole list), so the linear walk is off every hot path.
func (m *Machine) watchUnlink(a Addr, pid int) {
	link := m.watchHead[a]
	prev := int32(0)
	for link != 0 {
		next := m.procs[link-1].watchNext
		if int(link-1) == pid {
			if prev == 0 {
				m.watchHead[a] = next
			} else {
				m.procs[prev-1].watchNext = next
			}
			if m.watchTail[a] == link {
				m.watchTail[a] = prev
			}
			m.procs[link-1].watchNext = 0
			return
		}
		prev = link
		link = next
	}
}

// ErrDeadlock marks a run that ended with live processors blocked and
// no pending events. Fault-tolerant harness runners match it (with
// errors.Is) to report a degraded cell — e.g. survivors blocked forever
// on a word a crashed processor holds — instead of failing a sweep.
var ErrDeadlock = errors.New("deadlock")

// BlockedProc is one live-but-stuck processor in a DeadlockError: what
// it was blocked on ("watch", "delay", ...) and, for watch waits, the
// address it was parked under.
type BlockedProc struct {
	Proc int
	On   string
	Addr Addr // valid when On == "watch"
}

// WatchedWord is one contended word in a DeadlockError: its value at
// the wedge and the live processors parked watching it, in FIFO
// registration order. The value is usually the smoking gun — a lock
// word still carrying a dead processor's claim tells the reader which
// crash orphaned it.
type WatchedWord struct {
	Addr     Addr
	Value    Word
	Watchers []int
}

// DeadlockError is the detail behind ErrDeadlock: which processors
// were blocked on what, which processors were dead at the wedge, and
// every watched word with its value and watcher set — enough to read a
// fault-table failure from the error string alone. It unwraps to
// ErrDeadlock, so existing errors.Is call sites are unaffected.
type DeadlockError struct {
	At      sim.Time
	Live    int
	Blocked []BlockedProc
	Crashed []int // processors dead at the wedge (never recovered)
	Words   []WatchedWord
}

func (e *DeadlockError) Unwrap() error { return ErrDeadlock }

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: deadlock at t=%d with %d processors blocked: ", e.At, e.Live)
	for i, bp := range e.Blocked {
		if i > 0 {
			b.WriteString(", ")
		}
		if bp.On == "watch" {
			fmt.Fprintf(&b, "P%d(watch@%d)", bp.Proc, bp.Addr)
		} else {
			fmt.Fprintf(&b, "P%d(%s)", bp.Proc, bp.On)
		}
	}
	if len(e.Crashed) > 0 {
		fmt.Fprintf(&b, " (%d crashed:", len(e.Crashed))
		for _, id := range e.Crashed {
			fmt.Fprintf(&b, " P%d", id)
		}
		b.WriteString(")")
	}
	for _, w := range e.Words {
		fmt.Fprintf(&b, "; word[%d]=%d watched by", w.Addr, w.Value)
		for _, id := range w.Watchers {
			fmt.Fprintf(&b, " P%d", id)
		}
	}
	return b.String()
}

func (m *Machine) deadlockError() error {
	de := &DeadlockError{At: m.eng.Now(), Live: m.live}
	var order []Addr
	watchers := make(map[Addr][]int)
	for _, p := range m.procs {
		if p.crashed {
			de.Crashed = append(de.Crashed, p.id)
			continue // a dead processor is not blocked; it is gone
		}
		if p.finished {
			continue
		}
		de.Blocked = append(de.Blocked, BlockedProc{Proc: p.id, On: p.blockedOn, Addr: p.blockedAddr})
		if p.blockedOn == "watch" {
			if _, seen := watchers[p.blockedAddr]; !seen {
				order = append(order, p.blockedAddr)
			}
			watchers[p.blockedAddr] = append(watchers[p.blockedAddr], p.id)
		}
	}
	for _, a := range order {
		de.Words = append(de.Words, WatchedWord{Addr: a, Value: m.mem[a], Watchers: watchers[a]})
	}
	return de
}

// wakeWatchers schedules every processor watching addr to re-check at
// the given absolute time, in registration (FIFO) order. Spurious
// wakeups are fine: the spin machine rechecks. The intrusive list is
// consumed in place; no allocation, no map churn. Links are processor
// index + 1 (zero = end of list). Only the spin machine registers
// watchers, so the drive loop routes each wake to the watcher's
// re-check in place.
func (m *Machine) wakeWatchers(a Addr, at sim.Time) {
	link := m.watchHead[a]
	if link == 0 {
		return
	}
	m.watchHead[a] = 0
	m.watchTail[a] = 0
	for link != 0 {
		p := m.procs[link-1]
		m.eng.AtEvent(at, sim.EvDispatch, link-1, int32(a))
		link = p.watchNext
		p.watchNext = 0
	}
}

var (
	abortSentinel       = new(int)
	reincarnateSentinel = new(int)
)
