package machine

import (
	"repro/internal/sim"
)

// This file is the continuation table: the engine-level mechanism that
// executes straight-line instruction sequences inline in the drive loop
// instead of passing the baton back to the issuing goroutine for every
// operation.
//
// A processor running a scripted sequence (RunScript) parks its
// goroutine once. A script op that must wait schedules the processor's
// ordinary EvDispatch, and whichever goroutine pops it sees the active
// script and issues the next ops in place. Those are exactly the
// operations the goroutine's own Load/Delay/Store calls would have
// performed at that moment, with the same side effects, the same
// scheduling calls, the same livelock-budget charges, and the same RNG
// draws in the same order — so cycle counts, traffic counters, and the
// interleaving of all processors are bit-identical to issuing them from
// the goroutine (the determinism suite pins every scripted lock against
// its closure twin, which does just that). The only difference is
// host-side: the goroutine is resumed once, when the script completes,
// instead of once per operation that crosses a pending event.
//
// Ops are data-encoded (no closure per op except the optional free
// host-side callback), so scripts can be built once and reused across
// iterations without allocation on the hot path.

// ContOpKind selects what a ContOp does.
type ContOpKind uint8

const (
	// ContLoad issues a charged load of Addr; the value lands in the
	// script accumulator (consumed by ContStoreAcc).
	ContLoad ContOpKind = iota
	// ContDelay models local computation of Dur cycles.
	ContDelay
	// ContExpDelay models local computation of rng.ExpTime(Dur) cycles,
	// drawing from the processor's RNG at issue time — the same draw,
	// in the same stream position, the goroutine loop would make.
	ContExpDelay
	// ContStore issues a charged store of Val to Addr (waking watchers).
	ContStore
	// ContStoreAcc issues a charged store of accumulator+Val to Addr.
	ContStoreAcc
	// ContCall invokes the host-side callback Fn(p) with no simulated
	// cost: no cycles, no traffic, no RNG draws. Bookkeeping only.
	ContCall
)

// ContOp is one data-encoded scripted operation.
type ContOp struct {
	Kind ContOpKind
	Addr Addr
	Val  Word
	Dur  sim.Time
	Fn   func(*Proc)
}

// contState is the per-processor continuation descriptor. It lives by
// value in the Proc and is reused across scripts, so entering one
// allocates nothing beyond the caller's op slice.
type contState struct {
	active bool
	pc     int
	acc    Word // last ContLoad result, consumed by ContStoreAcc
	ops    []ContOp
}

// contWhy maps an op kind to the blockedOn tag the equivalent Proc call
// would set, so deadlock reports read the same either way.
func contWhy(k ContOpKind) string {
	switch k {
	case ContLoad:
		return "load"
	case ContStore, ContStoreAcc:
		return "store"
	default:
		return "delay"
	}
}

// RunScript executes the ops in order as this processor's program,
// advancing the virtual clock exactly as the equivalent sequence of
// Load/Delay/Store calls would. The goroutine parks while the drive
// loop advances the script in place at each of its dispatches, and
// resumes when the script completes — one handoff per script instead
// of one per operation that crosses a pending event. The op slice must
// not be mutated until RunScript returns.
func (p *Proc) RunScript(ops []ContOp) {
	c := &p.cont
	c.active = true
	c.pc = 0
	c.acc = 0
	c.ops = ops
	if !p.m.contAdvance(p) {
		p.m.drive(p) // returns once a dispatch has run the script to its end
	}
	c.active = false
	c.ops = nil
	p.blockedOn = ""
}

// contComplete mirrors Proc.complete for an operation issued by the
// continuation machinery: retire inline when no pending event precedes
// the completion (charging the livelock budget), otherwise schedule the
// processor's EvDispatch at the completion time — the same decision,
// charge, and event the goroutine path makes. The drive loop advances
// the script when that dispatch fires.
func (p *Proc) contComplete(lat sim.Time) bool {
	target := p.localNow + lat
	eng := p.m.eng
	if nxt, ok := eng.NextTime(); !ok || nxt > target {
		if !eng.ChargeStep() {
			p.localNow = target
			p.m.stats.InlineOps++
			return true
		}
	}
	eng.AtEvent(target, sim.EvDispatch, int32(p.id), 0)
	return false
}

// contAdvance runs p's continuation until the script completes (returns
// true: the processor's program resumes at p.localNow) or the current
// op must wait for an engine event (returns false). RunScript calls it
// once on the processor's own goroutine to start the script; the drive
// loop calls it each time the processor's EvDispatch fires while the
// script is active.
func (m *Machine) contAdvance(p *Proc) bool {
	c := &p.cont
	for c.pc < len(c.ops) {
		op := &c.ops[c.pc]
		c.pc++
		p.blockedOn = contWhy(op.Kind)
		var lat sim.Time
		switch op.Kind {
		case ContLoad:
			c.acc, lat = p.loadIssue(op.Addr)
		case ContDelay:
			lat = op.Dur
		case ContExpDelay:
			lat = p.rng.ExpTime(op.Dur)
		case ContStore, ContStoreAcc:
			v := op.Val
			if op.Kind == ContStoreAcc {
				v += c.acc
			}
			p.stats.Stores++
			lat = m.access(p, op.Addr, accWrite)
			m.mem[op.Addr] = v
			m.wakeWatchers(op.Addr, p.localNow+lat)
		case ContCall:
			op.Fn(p)
			continue
		}
		if lat < 0 {
			lat = 0
		}
		if !p.contComplete(lat) {
			return false
		}
	}
	return true
}
