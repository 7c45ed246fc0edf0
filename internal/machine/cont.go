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
	// ContFetchStore issues a charged fetch&store of Val to Addr, as
	// Proc.FetchStore does; the old value lands in the accumulator.
	ContFetchStore
	// ContFetchAdd issues a charged fetch&add of Val to Addr, as
	// Proc.FetchAdd does; the old value lands in the accumulator.
	ContFetchAdd
	// ContSpin enters the machine-driven spin wait (spin.go) that
	// SpinUntilPred, SpinTAS, SpinTASFor or SpinTTAS would, built by
	// SpinReadOp, SpinTASOp or SpinTTASOp; the last probed value lands
	// in the accumulator (zero when a test&set spin won). The wait
	// replays probe by probe in the drive loop exactly as it does for a
	// goroutine, and the script continues in place when it completes.
	ContSpin
	// ContSub runs the script Sub(p) returns as a subroutine, starting
	// with the accumulator cleared, and continues after this op with
	// the accumulator the callee left when the callee ends (its pc
	// passes its last op, or a branch in it returns its length). Branch
	// targets stay relative to each script, so one script shared by
	// every processor can call each processor's own scripts. Calls nest
	// one level: a called script holds no ContSub.
	ContSub
)

// ContOp is one data-encoded scripted operation. Each kind reads only
// the operands its doc names. A ContSpin keeps its wait in the other
// fields (see SpinReadOp and SpinTASOp), so the op stays at 56 bytes.
type ContOp struct {
	Kind ContOpKind
	// ContSpin only: the wait kind, the predicate's comparison (read
	// spins) and the backoff's proportional jitter (test&set spins).
	spin   uint8
	cmp    PredOp
	jitter bool
	Addr   Addr
	Val    Word
	New    Word // ContCAS: the value installed on success
	Dur    sim.Time
	Fn     func(*Proc)
	Branch func(p *Proc, acc Word) int
	Sub    func(*Proc) []ContOp
}

// SpinReadOp returns the ContSpin that SpinUntilPred(a, pred) performs:
// Val holds the predicate's Want and New its Mask, so a branch can aim
// the wait at a computed word and value.
func SpinReadOp(a Addr, pred Pred) ContOp {
	return ContOp{Kind: ContSpin, spin: spinRead, cmp: pred.Op, Addr: a, Val: pred.Want, New: pred.Mask}
}

// SpinTASOp returns the ContSpin that SpinTAS(a, bo) performs: Val holds
// the backoff's Base and New its Cap. A positive within bounds the wait
// as SpinTASFor(a, bo, entry+within) does, with the deadline taken from
// the processor's clock when the op issues (in Dur).
func SpinTASOp(a Addr, bo Backoff, within sim.Time) ContOp {
	return ContOp{Kind: ContSpin, spin: spinTAS, jitter: bo.PropJitter, Addr: a,
		Val: Word(bo.Base), New: Word(bo.Cap), Dur: within}
}

// SpinTTASOp returns the ContSpin that SpinTTAS(a) performs.
func SpinTTASOp(a Addr) ContOp {
	return ContOp{Kind: ContSpin, spin: spinTTAS, cmp: PredEq, Addr: a}
}

// spinWait decodes a ContSpin's predicate and backoff schedule.
func (op *ContOp) spinWait() (Pred, Backoff) {
	if op.spin == spinTAS {
		return Pred{}, Backoff{Base: sim.Time(op.Val), Cap: sim.Time(op.New), PropJitter: op.jitter}
	}
	return Pred{Op: op.cmp, Mask: op.New, Want: op.Val}, Backoff{}
}

// contState is the per-processor continuation descriptor. It lives by
// value in the Proc and is reused across scripts, so entering one
// allocates nothing beyond the caller's op slices.
type contState struct {
	active bool
	pc     int
	acc    Word // last ContLoad value, swap's old value, ContCAS outcome or spin's last probe
	ops    []ContOp
	// caller and ret are where a ContSub returns to; caller is nil
	// outside a call.
	caller []ContOp
	ret    int
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
	case ContFetchStore:
		return "fetch&store"
	case ContFetchAdd:
		return "fetch&add"
	default:
		return "delay"
	}
}

// RunScript executes the ops as this processor's program, starting at
// ops[0] and following ContBranch jumps, advancing the virtual clock
// exactly as the equivalent Load/Delay/Store/CompareAndSwap calls
// would, and returns the accumulator's final value. The goroutine parks
// while the drive loop advances the script in place at each of its
// dispatches, and resumes when the script completes — one handoff per
// script instead of one per operation that crosses a pending event.
// Until RunScript returns, only the script's own branches may mutate
// the op slices.
func (p *Proc) RunScript(ops []ContOp) Word {
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
	return c.acc
}

// contAdvance runs p's continuation until the script completes (returns
// true: the processor's program resumes at p.localNow) or the current
// op must wait for an engine event (returns false). RunScript calls it
// once on the processor's own goroutine to start the script; the drive
// loop calls it each time the processor's EvDispatch fires while the
// script is active, after advancing a ContSpin's wait to its end.
func (m *Machine) contAdvance(p *Proc) bool {
	c := &p.cont
	if p.spin.active {
		c.acc = p.spinFinish() // the drive loop just completed this ContSpin
	}
	for {
		if c.pc >= len(c.ops) {
			if c.caller == nil {
				return true
			}
			c.ops, c.pc, c.caller = c.caller, c.ret, nil
			continue
		}
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
		case ContFetchStore:
			c.acc, lat = p.swapIssue(op.Addr, op.Val, false)
		case ContFetchAdd:
			c.acc, lat = p.swapIssue(op.Addr, op.Val, true)
		case ContSpin:
			var deadline sim.Time
			if op.Dur > 0 {
				deadline = p.localNow + op.Dur
			}
			pred, bo := op.spinWait()
			p.spinEnter(op.spin, op.Addr, pred, bo, deadline)
			if !m.spinAdvance(p) {
				return false // the drive loop advances the wait, then the script
			}
			c.acc = p.spinFinish()
			continue
		case ContSub:
			c.caller, c.ret = c.ops, c.pc
			c.ops, c.pc, c.acc = op.Sub(p), 0, 0
			continue
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
}
