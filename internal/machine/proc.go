package machine

import (
	"repro/internal/sim"
)

// Proc is a simulated processor. Synchronization algorithms are written
// as ordinary Go code against this API; every operation advances the
// virtual clock and is charged model-appropriate interconnect cost.
//
// A Proc is only valid inside the program body passed to Machine.Run;
// its methods must never be called from any other goroutine.
//
// Timing is tracked on a per-processor local clock. When the engine
// dispatches a processor the local clock equals the engine clock; each
// operation then either retires inline — advancing only the local clock,
// with no event and no goroutine handoff — or synchronizes with the
// engine. Inlining is a conservative-lookahead decision: an operation
// completing at local time t may retire inline if and only if no pending
// engine event has a timestamp <= t, because then no other processor
// could have run (or observed anything) before the operation finished.
// The transformation is therefore exact: cycle counts, traffic counts,
// and the interleaving of all processors are bit-identical to the fully
// event-driven execution, but cache hits and local delays — the bulk of
// a spin loop — cost no engine work at all.
type Proc struct {
	id  int
	m   *Machine
	rng *sim.RNG

	// resume carries the baton: a send resumes this processor's program
	// at the time of the dispatch event the sender just fired.
	resume chan struct{}

	// localNow is this processor's clock. Invariant while running:
	// localNow >= engine clock, and no pending event fires in between.
	localNow sim.Time

	// watchNext links the intrusive per-word watcher list (see
	// Machine.watchHead) as processor index + 1; zero terminates.
	watchNext int32

	// spin is the machine-driven spin-wait state (see spin.go). It lives
	// here by value so entering a wait never allocates.
	spin spinState

	// cont is the machine-driven scripted-continuation state (see
	// cont.go). Like spin it lives here by value, so running a script
	// allocates nothing beyond the caller's op slice.
	cont contState

	finished bool
	// crashed marks a processor removed by a fault plan (fault.go): its
	// events are dropped and the words it holds are never released. A
	// plan without a matching restart leaves it crashed forever (its
	// goroutine unwinds at teardown); with one, the drive loop revives
	// it at the restart instant and the goroutine re-enters the body.
	crashed bool
	// incarnation counts rebirths: 0 until the processor recovers from
	// a crash, then incremented per revival. Harness code pairs it with
	// Crashed to tell a takeover from a dead-or-reborn holder apart
	// from a mutual-exclusion violation.
	incarnation int
	// reincarnate tells waitBaton the wake it just got is a revival:
	// instead of resuming the dead incarnation's program mid-operation,
	// the goroutine unwinds to the recovery entry point (the top of the
	// body) via the reincarnate sentinel.
	reincarnate bool
	blockedOn   string // static tag for deadlock reports; never formatted on the hot path
	blockedAddr Addr   // address detail when blockedOn == "watch"

	stats ProcStats
}

// ID returns the processor index in [0, Procs).
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time as seen by this processor.
func (p *Proc) Now() sim.Time { return p.localNow }

// RNG returns this processor's private deterministic generator.
func (p *Proc) RNG() *sim.RNG { return p.rng }

// waitBaton parks the processor until another drive loop hands it the
// baton (its dispatch event fired). During teardown of a terminated run
// the wake is RunEach unwinding us instead; the goroutine exits via the
// abort sentinel.
func (p *Proc) waitBaton() {
	<-p.resume
	if p.m.tearingDown {
		panic(abortSentinel)
	}
	if p.reincarnate {
		p.reincarnate = false
		panic(reincarnateSentinel)
	}
}

// Suspects asks the deterministic heartbeat failure detector whether
// processor q is suspected dead as of this processor's local clock.
// The detector is compiled from the fault plan (fault.go): suspicion
// follows q's heartbeats with a fixed threshold, so a crash is
// suspected suspectAfter (2000) cycles after it happens, the suspicion
// clears at q's restart, and a stall longer than the threshold shows
// up as a false positive for its duration. The query costs no cycles,
// no traffic, and no RNG draws — the model is a hardware-maintained
// local lease table — so algorithms may consult it freely without
// perturbing timing, and the A/B window contract is unaffected.
func (p *Proc) Suspects(q int) bool { return p.m.SuspectedAt(q, p.localNow) }

// retire finishes an operation that costs lat cycles: the one
// inline-or-schedule rule that goroutine calls, spin probes and script
// ops share. When every pending engine event is strictly later than the
// completion time, the operation retires inline by advancing the local
// clock, and retire reports true. Otherwise it schedules the
// processor's EvDispatch at the completion time, with arg1 as payload
// (a spin probe's address, read by the window detector), and reports
// false.
func (p *Proc) retire(lat sim.Time, arg1 int32) bool {
	target := p.localNow + lat
	eng := p.m.eng
	if next, ok := eng.NextTime(); !ok || next > target {
		// Inline work still charges the livelock budget; once it is
		// exhausted we must go through the engine so its run loop can
		// surface ErrStepLimit instead of spinning the host forever.
		if !eng.ChargeStep() {
			p.localNow = target
			p.m.stats.InlineOps++
			return true
		}
	}
	eng.AtEvent(target, sim.EvDispatch, int32(p.id), arg1)
	return false
}

// complete finishes an operation issued by the processor's goroutine:
// retire it, or drive the engine until its wakeup fires (the drive loop
// resynchronizes the local clock).
func (p *Proc) complete(lat sim.Time, why string) {
	if !p.retire(lat, 0) {
		p.block(why)
	}
}

// block drives the engine until this processor's pending dispatch fires,
// tagging the wait for deadlock reports.
func (p *Proc) block(why string) {
	p.blockedOn = why
	p.m.drive(p)
	p.blockedOn = ""
}

// syncClock drains any fast-path run-ahead through one engine event, so
// the engine clock catches up to this processor's local clock. Called
// when the program body returns.
func (p *Proc) syncClock() {
	if p.localNow > p.m.eng.Now() {
		p.m.eng.AtEvent(p.localNow, sim.EvDispatch, int32(p.id), 0)
		p.block("finish")
	}
}

// Delay models local computation taking d cycles. A delay whose end
// precedes every pending event retires inline; otherwise it yields,
// preserving fairness of the event ordering exactly as before.
func (p *Proc) Delay(d sim.Time) {
	if d < 0 {
		d = 0
	}
	p.complete(d, "delay")
}

// loadIssue performs the issue half of a load — traffic accounting,
// coherence/occupancy update, data read — and returns the value and the
// operation latency. Each issue function below is the single
// implementation of its operation: Proc's methods, the spin state
// machine and continuation scripts all call it, so a machine-driven
// probe or script op is bit-identical to a goroutine-issued one.
func (p *Proc) loadIssue(a Addr) (Word, sim.Time) {
	p.stats.Loads++
	lat := p.m.access(p, a, accRead)
	return p.m.mem[a], lat
}

// storeIssue performs the issue half of a store, waking watchers.
func (p *Proc) storeIssue(a Addr, v Word) sim.Time {
	p.stats.Stores++
	lat := p.m.access(p, a, accWrite)
	p.m.mem[a] = v
	p.m.wakeWatchers(a, p.localNow+lat)
	return lat
}

// swapIssue performs the issue half of a fetch&store of v, or with add
// a fetch&add of v, returning the old value. A test&set is a
// fetch&store of 1.
func (p *Proc) swapIssue(a Addr, v Word, add bool) (Word, sim.Time) {
	p.stats.RMWs++
	lat := p.m.access(p, a, accRMW)
	old := p.m.mem[a]
	if add {
		v += old
	}
	p.m.mem[a] = v
	p.m.wakeWatchers(a, p.localNow+lat)
	return old, lat
}

// tasIssue performs the issue half of a test&set.
func (p *Proc) tasIssue(a Addr) (Word, sim.Time) { return p.swapIssue(a, 1, false) }

// casIssue performs the issue half of a compare&swap: one RMW charge
// whether or not it succeeds, watchers woken only on success.
func (p *Proc) casIssue(a Addr, old, new Word) (bool, sim.Time) {
	p.stats.RMWs++
	lat := p.m.access(p, a, accRMW)
	ok := p.m.mem[a] == old
	if ok {
		p.m.mem[a] = new
		p.m.wakeWatchers(a, p.localNow+lat)
	}
	return ok, lat
}

// Load reads a word.
func (p *Proc) Load(a Addr) Word {
	v, lat := p.loadIssue(a)
	p.complete(lat, "load")
	return v
}

// Store writes a word.
func (p *Proc) Store(a Addr, v Word) {
	p.complete(p.storeIssue(a, v), "store")
}

// TestAndSet atomically sets the word to 1 and returns its old value.
func (p *Proc) TestAndSet(a Addr) Word {
	old, lat := p.tasIssue(a)
	p.complete(lat, "test&set")
	return old
}

// FetchStore atomically swaps in v and returns the old value.
func (p *Proc) FetchStore(a Addr, v Word) Word {
	old, lat := p.swapIssue(a, v, false)
	p.complete(lat, "fetch&store")
	return old
}

// FetchAdd atomically adds d and returns the old value.
func (p *Proc) FetchAdd(a Addr, d Word) Word {
	old, lat := p.swapIssue(a, d, true)
	p.complete(lat, "fetch&add")
	return old
}

// CompareAndSwap installs new if the word equals old, reporting success.
// Failed CAS still costs a full interconnect transaction, as on real
// hardware of the era.
func (p *Proc) CompareAndSwap(a Addr, old, new Word) bool {
	ok, lat := p.casIssue(a, old, new)
	p.complete(lat, "compare&swap")
	return ok
}

// The spin-wait API (SpinUntilPred, SpinUntilEq, SpinWhileEq, SpinTAS,
// SpinTTAS) lives in spin.go: waits are machine-driven rather than
// replayed by this goroutine, so a contended spin costs no baton
// handoffs.
