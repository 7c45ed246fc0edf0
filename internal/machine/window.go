package machine

import (
	"math"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Cross-processor spin-window batching.
//
// spinBatchTAS (spin.go) charges one processor's raw probe runs in
// closed form, but it stops at the first pending event — and in a
// contended storm the pending events are the *other* spinners' probes,
// so an interleaved storm still replays every probe through the engine
// queue. This file batches across processors: when every event the
// engine will fire before a computable horizon is a raw test&set probe
// (the zero Backoff), the whole window [now, horizon) is charged in
// closed form and the clock advances in one step.
//
// Why that is exact. A saturated test&set storm serializes on one
// resource — the single bus, or the probed word's home module on a
// module machine — which serves exactly one probe at a time. Each probe
// completion pops, judges its predicate (it provably fails: the word
// stays non-zero, since the only in-window writes are the failing
// test&sets' idempotent stores of 1), immediately reissues, and parks
// again. The probe completions therefore form a strict rotation of the
// spinners in the (when, seq) order of their pending events at window
// start. With per-position service times S_1..S_n (one per spinner, in
// rotation order: BusLatency on the bus, LocalMem plus the spinner's
// declared distance-class traversal on a module machine), the j-th
// in-window pop reissues into the busy resource and completes at
// F + cumS(j), where F is the resource's free point and cumS(j) is the
// sum of the first j services of the cyclic schedule
// (cumS(j) = (j/n)·R + pre[j mod n], R the whole-rotation sum). Each
// pop performs one RMW, one traffic charge, one step/work debit, and
// consumes exactly one sequence number for the successor it schedules.
// Every quantity the simulation can observe — per-processor RMW and
// traffic counters, resource occupancy, the step and sequence counters,
// the value each probe reads, and the (when, seq) of each spinner's
// pending event at the horizon — is then closed-form arithmetic in j.
// Interleaved distance classes still pop in global (when, seq) order;
// the cyclic cumS schedule reproduces that order's tie-breaks exactly
// because every reissue joins the same serial queue. The window
// detector verifies the preconditions of that argument and refuses
// anything else, so enabling windows is bit-identical to per-event
// execution by construction (Config.NoSpinWindows exists purely for
// A/B tests and perf comparisons).
//
// The engine hands the window over in firing order: its calendar queue
// keeps one FIFO bucket per cycle, so sim.Engine.ScanWindow walks the
// buckets from the front and returns the eligible run before the
// horizon already sorted by (when, seq). Rotation positions are the
// set's indexes, the set is exactly the next n events to fire, and the
// commit (sim.Engine.FinishWindow) unlinks those n events and relinks
// each at its retimed instant. One cumS schedule serves every machine:
// on the bus all services are the one bus period, on a module machine
// spinners in different distance classes (cluster's intra- vs
// inter-hop periods) rotate together on the prefix sums.
//
// Two window shapes commit:
//
//   - The rotation: the storm fast-forwards to the horizon.
//   - The release/takeover drain: when the storm word has been freed,
//     the pending probes judge-fail one last time and reissue; the
//     first reissue reads zero and wins the word (its value and
//     eligibility bit are materialized), every later reissue reads the
//     winner's 1 and parks. One pop per pending probe, after which the
//     winner's completion resumes the program per-event.
//
// A backoff spinner is never eligible: its probes, and any delay it
// schedules as an event, bound the window like every other event and
// replay per-event, which is exact by definition.
//
// Preconditions checked by tryWindow, and why each one matters:
//
//   - Every pending event before the horizon is an EvSpin whose
//     processor sits in a window-eligible test&set spin (kind spinTAS,
//     phase spTASJudge, zero Backoff, no deadline) on one shared
//     address. Anything else — a dispatch, a continuation, a TTAS burst
//     probe, a backoff probe or delay, a woken read-spin, or any event
//     the engine holds in its overflow heap (due a calendar span or
//     more ahead) — becomes the horizon instead, truncating (not
//     aborting) the window.
//   - The last probe each spinner issued read a non-zero value
//     (spin.val != 0): all in-window judges provably fail. (A freed
//     word flips the attempt into drain mode instead.)
//   - The probed word has no watchers: no probe wakes anybody.
//   - Bus: the word's exclusive owner is not the first spinner in
//     rotation. In rotation every probe is preceded by a different
//     processor's probe, so it is a full bus transaction; only the
//     window's first probe could instead be a cache hit (and a
//     spinBatchTAS candidate), which would break the service schedule.
//   - Modules: every window spinner is remote to the word's home
//     module, on a topology declaring closed traversal classes
//     (topo.TraversalClasses), so each spinner's service time is a
//     storm-stable constant. The home processor itself has a shorter
//     period and can trigger spinBatchTAS mid-storm; its events bound
//     the window instead.
//   - Saturation: the resource's free point F is at or past the last
//     pending probe completion, so every in-window reissue queues on
//     the resource and the cumS schedule is exact. This holds whenever
//     the pending completions were themselves scheduled by the
//     resource (F *is* the last completion); the check guards the
//     cold-start transient.
//   - The pop budget: the window never charges more pops than the
//     engine may still fire, so a livelocked storm trips ErrStepLimit
//     at exactly the event where per-event execution would — but
//     reaches it in one window instead of 10^8 pops.
const (
	// windowRetry is how many probes to wait before rescanning after a
	// failed attempt (storms that are structurally ineligible — backoff
	// spinners, watcher bursts — would otherwise pay a scan per probe);
	// windowRetryStorm is the shorter wait when an eligible storm was
	// found but transiently blocked (a winner mid-exit, a release in
	// flight).
	windowRetry      = 8
	windowRetryStorm = 2
	// windowMinPops is the smallest window worth committing.
	windowMinPops = 2
)

// The eligibility bitmask. Scanning the queue per attempt must not
// chase a pointer into every spinner's Proc struct, so the spin
// machinery maintains one bit per processor: set exactly while the
// processor's pending EvSpin (if any) is a window-eligible test&set
// probe completion that read a non-zero value. The static part
// (spinState.winStatic) is computed once at spin entry; the dynamic
// part follows the value each issued probe reads. The mask is a
// word-indexed bit array, so eligibility tracking scales past 64
// processors — the P ∈ {256, 1024} sweeps run the same code path with
// more words.

func (m *Machine) setWinMask(pid int, ok bool) {
	w := &m.winMask[pid>>6]
	bit := uint64(1) << uint(pid&63)
	if ok {
		if *w&bit == 0 {
			*w |= bit
			m.winCount++
		}
	} else if *w&bit != 0 {
		*w &^= bit
		m.winCount--
	}
}

func (m *Machine) winMaskBit(pid int32) bool {
	return m.winMask[pid>>6]&(uint64(1)<<uint(pid&63)) != 0
}

// winStatic reports the spin-entry-time part of window eligibility: a
// raw test&set (the zero Backoff) on a machine with a serializing
// resource, and on a module machine only a spinner remote to the
// word's home module on a topology declaring closed traversal classes
// (a local spinner's shorter service period breaks the rotation the
// closed form depends on; undeclared topologies replay per-event,
// still exact).
// On success it caches the spinner's probe service time in
// spinState.winService (one topology hop-price call per spin entry,
// not per window scan).
func (m *Machine) winStatic(p *Proc, kind uint8, a Addr, bo Backoff) bool {
	if !m.winEnabled || kind != spinTAS || bo != (Backoff{}) {
		return false
	}
	switch m.disc {
	case topo.SnoopingBus:
		p.spin.winService = m.cfg.BusLatency
		return true
	case topo.Modules:
		if !m.winClassed {
			return false
		}
		mod := m.home(a)
		if mod == p.id {
			return false
		}
		p.spin.winService = m.cfg.LocalMem + m.topo.Traversal(p.id, mod, m.tm)
		return true
	}
	return false
}

// tryWindow attempts one closed-form window advance; next is the
// address the queue's earliest event is probing (from the drive loop's
// peek). On failure it backs the trigger off; on success the streak
// resets (the next pop is the horizon event). Called from the drive
// loop only.
func (m *Machine) tryWindow(next Addr) {
	m.spinStreak = -windowRetry
	// A rotation (or drain) needs at least two eligible spinners.
	if m.winCount < 2 {
		return
	}
	// A freed storm word means a takeover is in flight: the pending
	// probes judge-fail and reissue, and the first reissue wins. That
	// is the release drain, handled in closed form below.
	drain := m.mem[next] == 0
	if drain {
		m.spinStreak = -windowRetryStorm
	}
	eng := m.eng
	// Fault gating, part one: refuse to form a window while any stall
	// or degrade interval is active — a stalled spinner's pops would
	// need deferring and a degraded module would change the service
	// schedule, and a refused window is always exact (the per-event
	// path replays the storm identically). Crashes need no check here:
	// a pending EvFault is an ordinary horizon for ScanWindow, and a
	// materialized crash already cleared its processor's mask bit.
	if m.flt != nil && m.flt.activeAt(eng.Now()) {
		return
	}
	if eng.Pending() < windowMinPops {
		return
	}

	// Collect the window in one engine-side walk of the queue in firing
	// order: eligible probes of the anchor address (classified by the
	// eligibility mask, no per-Proc pointer chasing) up to the first
	// other event, the horizon. Anchoring on the next-to-fire probe's
	// address keeps a concurrent storm on another word from stealing
	// the scan. The set arrives in (when, seq) order, which is the
	// rotation order, and it is exactly the next n events to fire.
	addr := next
	set, horizon, haveHorizon := eng.ScanWindow(sim.EvSpin, int32(addr), m.winMask, m.winSet[:0])
	m.winSet = set // keep the grown buffer
	if len(set) < 2 {
		return // rotation (and its alternating-owner argument) needs >= 2
	}
	// Fault gating, part two: clamp the horizon to the next fault
	// boundary. No interval is active now (checked above) and no
	// boundary precedes the clamped horizon, so fault state is
	// constant across every in-window pop — no stall can defer one,
	// no degrade can reprice one. The boundary orders before every
	// real event at its instant, so a probe due at it leaves the set.
	if m.flt != nil {
		if fb, ok := m.flt.nextBound(eng.Now()); ok && (!haveHorizon || fb <= horizon) {
			horizon, haveHorizon = fb, true
			for k := range set {
				if set[k].When >= fb {
					set = set[:k]
					break
				}
			}
		}
	}

	// A storm is present; any remaining blocker is transient (a winner
	// draining out of the rotation, a release in flight), so retry
	// sooner than the structural backoff would.
	m.spinStreak = -windowRetryStorm
	if m.watchHead[addr] != 0 {
		return
	}
	n := len(set)
	if n < 2 {
		return
	}

	// The serializing resource and its free point; the saturation
	// precondition (free at or past the last pending completion) makes
	// the cumS schedule exact.
	mod := 0
	var free sim.Time
	if m.disc == topo.SnoopingBus {
		free = m.busFreeAt
	} else {
		mod = m.home(addr)
		free = m.modFreeAt[mod]
	}
	if free < set[n-1].When {
		return // cold-start transient: let the per-event path reach saturation
	}
	if m.disc == topo.SnoopingBus && m.owner[addr] == int16(set[0].Arg0)+1 {
		return // first probe would be a cache hit, not a bus transaction
	}

	// Prefix sums of the per-position service times: pre[i] is the
	// total service of rotation positions 0..i-1, and cumS(j) the sum
	// of the first j services of the cyclic schedule. Service times
	// come from the spin-entry cache (spinState.winService) — every
	// masked spinner passed winStatic, which priced its hop once: the
	// bus latency for every bus spinner, its distance class on a module
	// machine. The scratch array is fully rewritten, not cleared
	// (growSlice).
	pre := growSlice(m.winPre, n+1)
	m.winPre = pre
	pre[0] = 0
	for i := range set {
		s := m.procs[set[i].Arg0].spin.winService
		if s <= 0 {
			return // degenerate zero-cost probe: no serial schedule to batch
		}
		pre[i+1] = pre[i] + s
	}
	R := pre[n]
	nn := uint64(n)
	cumS := func(j uint64) sim.Time {
		return sim.Time(j/nn)*R + pre[j%nn]
	}

	// Pop count. A drain pops each pending probe exactly once: the
	// first reissue reads the freed word and wins, so the rotation
	// ends before the winner's next completion at free+cumS(1) — which
	// fires after every pending pop (free >= the last pending
	// completion). A rotation runs to the horizon: rescheduled pop n+k
	// fires at free+cumS(k), and its seq is larger than the horizon's
	// (scheduled earlier), so count the k >= 1 with
	// cumS(k) <= horizon-free-1 — whole rotations contribute n pops per
	// R, the partial one is a prefix-sum scan.
	total := nn
	if !drain {
		if haveHorizon {
			if d := horizon - free; d > 0 {
				dm1 := d - 1
				q0 := uint64(dm1 / R)
				rem := dm1 - sim.Time(q0)*R
				extra := q0 * nn
				for s := 1; s <= n; s++ {
					if pre[s] <= rem {
						extra++
					}
				}
				total = nn + extra
			}
			// horizon at or before the free point: only the pending
			// probes fire.
		} else {
			total = math.MaxUint64 // pure storm: the budget caps it
		}
	}
	// Every pop charges exactly one step, so capping at the pop budget
	// reproduces the per-event ErrStepLimit point exactly.
	if avail := eng.PopBudget(); total > avail {
		total = avail
	}
	if total < windowMinPops {
		return
	}

	// Commit. Pop j (1-based) is the probe completion of the spinner at
	// rotation position (j-1) mod n, set[(j-1) mod n]; its reissue
	// completes at free+cumS(j) with sequence seq0+j, so each spinner's
	// pending probe ends at its last pop's reissue. A budget-capped
	// window pops only the first total spinners, and the rest keep
	// their pending probes. Two deliberate economies keep this loop
	// free of per-spinner pointer chasing:
	//
	//   - RMW and traffic charges accumulate in the flat winRMWs array
	//     and fold into the per-processor stats when Stats() snapshots
	//     them (the counters are read nowhere else mid-run).
	//   - spin.val is not materialized. Probe-by-probe it would be the
	//     value the spinner's last probe read — the pre-window word for
	//     the first prober, 1 after — but for a raw test&set wait val
	//     is dead beyond its zero/non-zero-ness (the judge retries on
	//     non-zero; SpinTAS discards the final value), and both the
	//     pre-window val and every in-window read are provably
	//     non-zero, so skipping the write is invisible.
	//
	// A drain's winner is the exception: its zero read is observable,
	// so its value and eligibility bit are materialized, and its
	// retimed completion judges the win per-event and resumes the
	// program.
	if total < nn {
		set = set[:total]
	}
	seq0 := eng.Seq()
	last := set[(total-1)%nn].Arg0
	for i := range set {
		r := uint64(i) + 1
		cnt := (total-r)/nn + 1
		jLast := r + nn*(cnt-1)
		m.winRMWs[set[i].Arg0] += cnt
		set[i].When, set[i].Seq = free+cumS(jLast), seq0+jLast
	}
	if drain {
		w := m.procs[set[0].Arg0]
		w.spin.val = 0
		m.setWinMask(w.id, false)
	}
	m.mem[addr] = 1
	occ := free + cumS(total)
	if m.disc == topo.SnoopingBus {
		m.owner[addr] = int16(last) + 1
		m.sharers[addr] = uint64(1) << uint(last)
		m.busFreeAt = occ
		m.stats.BusTxns += total
	} else {
		m.modFreeAt[mod] = occ
		m.stats.RemoteRefs += total
	}
	m.stats.WindowOps += total
	eng.FinishWindow(set, total)
	m.spinStreak = 0
}
