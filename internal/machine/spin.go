package machine

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// This file is the engine-level spin-wait machinery. A spinning
// processor used to replay its wait loop in its own goroutine: every
// failed probe cost one engine event plus one baton handoff (a channel
// send and a scheduler switch) to resume the goroutine, re-test, and
// issue the next probe. Under a raw test&set storm — the paper's central
// workload — almost every probe crosses a pending event, so the handoff
// dominated host time (BENCH_sim.json: ~2.5% of lock/tas ops retired
// inline).
//
// SpinTAS, SpinTTAS, SpinUntilPred (and the SpinUntil* wrappers) instead
// park the goroutine once and hand the wait to a per-processor spin
// state machine executed inside the drive loop. Each dispatch of a
// spinning processor advances the machine by exactly the operations the
// goroutine loop would have performed at that moment — same side
// effects, same scheduling calls, same livelock-budget charges, same RNG
// draws, in the same order — so cycle counts, traffic counters, and the
// interleaving of all processors are bit-identical to probe-by-probe
// execution (the determinism regression tests in internal/simsync pin
// this). The only difference is host-side: the goroutine is resumed
// once, when the wait is over, instead of once per probe.
//
// On top of that, the interleaved storm of several raw test&set
// spinners (the zero Backoff) pops its pending probes in batches
// (window.go). A lone spinner needs no batching: with no other event
// pending, each of its probes retires inline. Backoff schedules always
// replay probe by probe.

// PredOp selects the comparison a Pred applies.
type PredOp uint8

const (
	// PredEq holds when the (masked) value equals Want.
	PredEq PredOp = iota
	// PredNe holds when the (masked) value differs from Want.
	PredNe
	// PredGt holds when the (masked) value exceeds Want.
	PredGt
)

// Pred is a data-encoded spin predicate: it describes the wait condition
// without a closure, so registering it in the per-processor spin state
// allocates nothing. A zero Mask means "no mask" (compare the whole
// word).
type Pred struct {
	Op   PredOp
	Mask Word
	Want Word
}

// Holds reports whether the predicate is satisfied by v.
func (pr Pred) Holds(v Word) bool {
	if pr.Mask != 0 {
		v &= pr.Mask
	}
	switch pr.Op {
	case PredNe:
		return v != pr.Want
	case PredGt:
		return v > pr.Want
	default:
		return v == pr.Want
	}
}

// Backoff describes the deterministic delay schedule between failed
// test&set probes. The zero value means "retry immediately" (the raw
// test&set storm). With Base > 0, each failed probe is followed by a
// delay of cur, where cur starts at Base and doubles up to Cap;
// Cap <= Base keeps the delay fixed. PropJitter additionally draws
// RNG().Time(cur) on top of each delay (Anderson-style proportional
// jitter).
type Backoff struct {
	Base       sim.Time
	Cap        sim.Time
	PropJitter bool
}

// Spin-wait kinds.
const (
	spinRead uint8 = iota // read probes: cached watch on Bus, polling on remote NUMA
	spinTAS               // test&set probes with a Backoff schedule
	spinTTAS              // read-spin until the predicate holds, then one test&set; repeat
)

// Spin state-machine phases. Each phase names the next operation to
// perform; a phase boundary is exactly a resumption point of the
// equivalent goroutine loop.
const (
	spReadIssue uint8 = iota // issue a charged load of addr
	spReadJudge              // load completed: evaluate the predicate
	spTASIssue               // issue a charged test&set of addr
	spTASJudge               // test&set completed: evaluate the outcome
)

// spinState is the per-processor wait descriptor. It lives by value in
// the Proc and is reused across waits, so entering a spin allocates
// nothing.
type spinState struct {
	active bool
	kind   uint8
	phase  uint8
	poll   bool // remote word on a module machine: periodic polling instead of watching
	// winStatic is the spin-entry-time half of cross-processor window
	// eligibility (window.go): a raw test&set (zero Backoff, no
	// deadline) on a model with a serializing resource. The dynamic
	// half — the last probe read non-zero — is tracked in the
	// machine's eligibility mask at each issue.
	winStatic bool
	// winService is this spinner's probe service time on the
	// serializing resource (BusLatency, or localMem plus the
	// topology-priced traversal to the probed word's home module),
	// cached at spin entry so the window detector never recomputes the
	// topology's hop price per scan. Valid only while winStatic.
	winService sim.Time
	addr       Addr
	pred       Pred
	bo         Backoff
	cur        sim.Time // current backoff delay
	pollEvery  sim.Time // base poll spacing (topology-priced; set when poll)
	// deadline, when non-zero, bounds a test&set wait: the spin gives
	// up at the first probe boundary at or past it (SpinTASFor). A
	// deadline spin is never window-eligible: a window reissues every
	// probe in its set without judging a give-up point.
	deadline sim.Time
	val      Word // last probed value; the spin's result
}

func (s *spinState) holds(v Word) bool {
	return s.pred.Holds(v)
}

// nextDelay computes the post-failure delay and advances the backoff
// schedule, drawing jitter from the processor's RNG in exactly the order
// the goroutine loop would have.
func (s *spinState) nextDelay(p *Proc) sim.Time {
	d := s.cur
	if s.bo.PropJitter {
		d += p.rng.Time(s.cur)
	}
	if s.cur < s.bo.Cap {
		s.cur *= 2
		if s.cur > s.bo.Cap {
			s.cur = s.bo.Cap
		}
	}
	return d
}

// spinBegin runs a machine-driven spin wait on the calling processor's
// goroutine. The state machine runs inline until the wait either
// completes (every probe retired on the fast path — the uncontended
// case, which schedules no event and performs no handoff, exactly like
// the goroutine loop it replaces) or must wait for an event, in which
// case the goroutine drives the engine like any blocked processor and
// returns when its spin completes. A script's ContSpin (cont.go) calls
// the same two halves, spinEnter and spinFinish.
func (p *Proc) spinBegin(kind uint8, a Addr, pr Pred, bo Backoff, deadline sim.Time) Word {
	p.spinEnter(kind, a, pr, bo, deadline)
	if !p.m.spinAdvance(p) {
		p.m.drive(p)
	}
	return p.spinFinish()
}

// spinEnter arms p's spin state machine for a wait; spinAdvance then
// issues its first probe.
func (p *Proc) spinEnter(kind uint8, a Addr, pr Pred, bo Backoff, deadline sim.Time) {
	s := &p.spin
	s.active = true
	s.kind = kind
	s.addr = a
	s.pred = pr
	s.bo = bo
	s.cur = bo.Base
	s.poll = false
	s.deadline = deadline
	if deadline > 0 {
		// A timed-out wait reports the last probed value; seed it
		// non-zero so a deadline already in the past reads as failure
		// without issuing a probe.
		s.val = 1
	}
	if kind != spinTAS && p.m.disc == topo.Modules {
		if mod := p.m.home(a); mod != p.id {
			s.poll = true
			s.pollEvery = p.m.topo.PollSpacing(p.id, mod, p.m.tm)
		}
	}
	s.winStatic = deadline == 0 && p.m.winStatic(p, kind, a, bo)
	s.phase = spReadIssue
	if kind == spinTAS {
		s.phase = spTASIssue
	}
}

// spinFinish disarms p's completed spin wait and returns its last
// probed value.
func (p *Proc) spinFinish() Word {
	s := &p.spin
	s.active = false
	if s.winStatic {
		p.m.setWinMask(p.id, false) // the wait is over; no probe is pending
	}
	p.blockedOn = ""
	return s.val
}

// spinComplete records the phase to resume at and retires the spin
// machine's operation through Proc.retire, with the spun-on address as
// the wakeup's arg1 (the window detector reads it; window.go).
func (p *Proc) spinComplete(lat sim.Time, next uint8) bool {
	p.spin.phase = next
	return p.retire(lat, int32(p.spin.addr))
}

// spinAdvance runs p's spin state machine until it completes (returns
// true: the processor's program resumes at p.localNow) or must wait for
// an engine event or a write to the watched word (returns false). It is
// called from the drive loop when a dispatch of the spinning processor
// fires, and once at spin entry on the processor's own goroutine.
func (m *Machine) spinAdvance(p *Proc) bool {
	s := &p.spin
	for {
		switch s.phase {
		case spReadIssue:
			p.blockedOn = "spin"
			v, lat := p.loadIssue(s.addr)
			s.val = v
			if !p.spinComplete(lat, spReadJudge) {
				return false
			}
		case spReadJudge:
			if s.holds(s.val) {
				if s.kind == spinTTAS {
					s.phase = spTASIssue
					continue
				}
				return true
			}
			if s.poll {
				// Remote word on a module machine: no cache to spin in,
				// so poll the module with jitter at the spacing the
				// topology prices for this distance.
				jitter := p.rng.Time(s.pollEvery/2 + 1)
				if !p.spinComplete(s.pollEvery+jitter, spReadIssue) {
					return false
				}
				continue
			}
			// A write may have committed while our load was in flight. A
			// real snooping cache would have observed that invalidation,
			// so recheck the committed value before parking and pay a
			// normal re-read if it changed.
			if s.holds(m.mem[s.addr]) {
				s.phase = spReadIssue
				continue
			}
			p.watchRegister(s.addr)
			s.phase = spReadIssue // a write wakes us into a charged re-read
			return false
		case spTASIssue:
			p.blockedOn = "spin"
			if s.deadline > 0 && p.localNow >= s.deadline {
				return true // out of time: s.val is non-zero, the wait failed
			}
			old, lat := p.tasIssue(s.addr)
			s.val = old
			if s.winStatic {
				// Keep the window-eligibility mask current: the probe
				// in flight is batchable iff it read a non-zero value
				// (a zero read means this spinner wins at the judge).
				m.setWinMask(p.id, old != 0)
			}
			if !p.spinComplete(lat, spTASJudge) {
				return false
			}
		case spTASJudge:
			if s.val == 0 {
				return true // test&set won the word
			}
			if s.kind == spinTTAS {
				s.phase = spReadIssue // lock still held: back to the cached read spin
				continue
			}
			if s.bo.Base > 0 {
				if !p.spinComplete(s.nextDelay(p), spTASIssue) {
					return false // the delay scheduled as its own event
				}
				continue
			}
			s.phase = spTASIssue // raw storm: retry immediately
		}
	}
}

// watchRegister appends p to the intrusive watcher list of addr; the
// next write to addr schedules its wake. Links are processor index + 1,
// zero-terminated (see Machine.watchHead).
func (p *Proc) watchRegister(a Addr) {
	p.blockedOn = "watch"
	p.blockedAddr = a
	link := int32(p.id) + 1
	p.watchNext = 0
	if tail := p.m.watchTail[a]; tail != 0 {
		p.m.procs[tail-1].watchNext = link
	} else {
		p.m.watchHead[a] = link
	}
	p.m.watchTail[a] = link
}

// ---------------------------------------------------------------------
// Public spin-wait API
// ---------------------------------------------------------------------

// SpinUntilPred blocks until pred holds for the word at a, returning the
// satisfying value. The cost model depends on the machine:
//
//   - Bus/Ideal: the classic cached spin. The first read may miss; while
//     the value is unchanged the spinner consumes no interconnect
//     bandwidth (it spins in its own cache); each write to the word
//     invalidates and forces a re-read, charged through the normal path.
//   - NUMA, word in another module: there is no cache to spin in, so the
//     processor polls the remote module every pollInterval cycles; every
//     poll is a remote reference. This is exactly why remote-spin
//     algorithms melt Butterfly-class machines.
//   - NUMA, word in this processor's module: local spin; watchers model
//     the (free) local re-check and each wakeup pays one local access.
//
// The wait itself is machine-driven: the processor's goroutine parks
// once and the engine replays the probes (see the package comment above).
func (p *Proc) SpinUntilPred(a Addr, pred Pred) Word {
	return p.spinBegin(spinRead, a, pred, Backoff{}, 0)
}

// SpinWhileEq is shorthand for spinning until the word differs from
// sentinel.
func (p *Proc) SpinWhileEq(a Addr, sentinel Word) Word {
	return p.spinBegin(spinRead, a, Pred{Op: PredNe, Want: sentinel}, Backoff{}, 0)
}

// SpinUntilEq is shorthand for spinning until the word equals want.
func (p *Proc) SpinUntilEq(a Addr, want Word) Word {
	return p.spinBegin(spinRead, a, Pred{Op: PredEq, Want: want}, Backoff{}, 0)
}

// SpinTAS repeatedly issues test&set on a until it returns 0 (the caller
// then holds the latch), applying the Backoff schedule between failed
// probes. With the zero Backoff this is the raw test&set storm: every
// probe is an atomic read-modify-write hammering the interconnect for as
// long as the word stays non-zero.
func (p *Proc) SpinTAS(a Addr, bo Backoff) {
	p.spinBegin(spinTAS, a, Pred{}, bo, 0)
}

// SpinTASFor is the bounded-wait form of SpinTAS: it gives up at the
// first probe boundary at or past the absolute deadline, reporting
// whether the latch was won. A wait whose deadline has already passed
// issues no probe and reports failure. Deadline waits replay
// probe-by-probe (never in a spin window — the give-up point must be
// judged at every boundary), so they remain bit-identical across every
// execution path by construction.
func (p *Proc) SpinTASFor(a Addr, bo Backoff, deadline sim.Time) bool {
	if deadline <= 0 {
		deadline = 1 // a degenerate deadline in the past, never "unbounded"
	}
	return p.spinBegin(spinTAS, a, Pred{}, bo, deadline) == 0
}

// SpinTTAS is the test-and-test&set discipline: spin with ordinary reads
// until the word looks free (zero), then attempt one test&set; on
// failure, fall back to the read spin. Traffic drops from continuous to
// one burst per release.
func (p *Proc) SpinTTAS(a Addr) {
	p.spinBegin(spinTTAS, a, Pred{Op: PredEq, Want: 0}, Backoff{}, 0)
}
