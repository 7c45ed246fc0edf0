package machine

import (
	"repro/internal/sim"
)

// This file is the continuation table: the engine-level mechanism that
// executes small data-encoded programs — straight-line sequences, or
// loops whose branches are host callbacks — inline in the drive loop
// instead of passing the baton back to the issuing goroutine for every
// operation.
//
// A processor running a script (RunScript) parks its goroutine once. A
// script op that must wait schedules the processor's ordinary
// EvDispatch, and whichever goroutine pops it sees the active script
// and issues the next ops in place. Those are exactly the operations
// the goroutine's own Load/Delay/Store/CompareAndSwap calls would have
// performed at that moment, with the same side effects, the same
// scheduling calls, the same livelock-budget charges, and the same RNG
// draws in the same order — so cycle counts, traffic counters, and the
// interleaving of all processors are bit-identical to issuing them from
// the goroutine (the determinism suite pins every scripted primitive
// against its closure twin, which does just that). The only difference
// is host-side: the goroutine is resumed once, when the script
// completes, instead of once per operation that crosses a pending
// event.
//
// Control flow is a ContBranch: a free host callback that reads the
// accumulator (the last load or compare&swap result) and the processor
// (its clock, its failure detector), picks the next pc, and may rewrite
// the operands of later ops. A branch runs at the program point where
// the equivalent Go loop evaluates its condition, so it sees the same
// p.Now() and p.Suspects(q). Because branches rewrite operands, a
// script with branches belongs to one processor: primitives keep one op
// slice per processor, built when the primitive is constructed.
//
// Ops are data-encoded (no closure per op except the optional free
// host-side callbacks), so scripts can be built once and reused across
// iterations without allocation on the hot path.

// ContOpKind selects what a ContOp does.
type ContOpKind uint8

const (
	// ContLoad issues a charged load of Addr; the value lands in the
	// script accumulator.
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
	// ContCAS issues a charged compare&swap of Addr from Val to New,
	// exactly as Proc.CompareAndSwap does: one RMW whether or not it
	// succeeds, watchers woken only on success. The accumulator becomes
	// 1 on success and 0 on failure.
	ContCAS
	// ContBranch invokes Branch(p, acc) with no simulated cost and
	// continues at the pc it returns; len(ops) ends the script. The
	// callback may rewrite Addr, Val, New and Dur of any op in the same
	// slice before they issue (a computed address, an observed old
	// value, a backoff sized from a loaded value), and update host-side
	// counters.
	ContBranch
)

// ContOp is one data-encoded scripted operation. Each kind reads only
// the operands its doc names.
type ContOp struct {
	Kind   ContOpKind
	Addr   Addr
	Val    Word
	New    Word // ContCAS: the value installed on success
	Dur    sim.Time
	Fn     func(*Proc)
	Branch func(p *Proc, acc Word) int
}

// contState is the per-processor continuation descriptor. It lives by
// value in the Proc and is reused across scripts, so entering one
// allocates nothing beyond the caller's op slice.
type contState struct {
	active bool
	pc     int
	acc    Word // last ContLoad value or ContCAS outcome
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
	case ContCAS:
		return "compare&swap"
	default:
		return "delay"
	}
}

// RunScript executes the ops as this processor's program, starting at
// ops[0] and following ContBranch jumps, advancing the virtual clock
// exactly as the equivalent Load/Delay/Store/CompareAndSwap calls
// would. The goroutine parks while the drive loop advances the script
// in place at each of its dispatches, and resumes when the script
// completes — one handoff per script instead of one per operation that
// crosses a pending event. Until RunScript returns, only the script's
// own branches may mutate the op slice.
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
		case ContStore:
			lat = p.storeIssue(op.Addr, op.Val)
		case ContStoreAcc:
			lat = p.storeIssue(op.Addr, c.acc+op.Val)
		case ContCAS:
			var ok bool
			ok, lat = p.casIssue(op.Addr, op.Val, op.New)
			c.acc = 0
			if ok {
				c.acc = 1
			}
		case ContCall:
			op.Fn(p)
			continue
		case ContBranch:
			c.pc = op.Branch(p, c.acc)
			continue
		}
		if lat < 0 {
			lat = 0
		}
		if !p.retire(lat, 0) {
			return false // the drive loop resumes the script at this dispatch
		}
	}
	return true
}
