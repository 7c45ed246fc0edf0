package machine

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// Cross-processor spin windows.
//
// In a contended raw test&set storm nearly every pending event is
// another spinner's probe, so a storm replays probe by probe through
// the engine queue. A window fires the storm's pending probes as one
// batch: when the next events to fire are raw test&set probes (the
// zero Backoff) of one word, the whole run of them is popped, judged
// and reissued in one commit.
//
// Why that is exact. A saturated test&set storm serializes on one
// resource — the single bus, or the probed word's home module on a
// module machine — which serves exactly one probe at a time. Each probe
// completion pops, judges its predicate (it provably fails: the probe
// read non-zero), immediately reissues (reading non-zero again: the
// only in-window writes are the failing test&sets' idempotent stores
// of 1), and parks again. With the resource's free point F at or past
// the last pending completion, every reissue queues behind the one
// before it: the i-th pending probe (0-based, in firing order)
// reissues to complete at F + S_0 + … + S_i, where S_k is the service
// time of position k (BusLatency on the bus, localMem plus the
// spinner's topology-priced traversal on a module machine).
// Every reissue completes after the last pending probe, so the set pops
// in exactly its pending order, and each pop performs one RMW, one
// traffic charge and one step, and draws the next sequence number for
// its successor.
// Every quantity the simulation can observe — per-processor RMW and
// traffic counters, resource occupancy, the step and sequence counters,
// the value each probe reads, and the (when, seq) of each spinner's
// successor — is then arithmetic over the set. The window detector
// verifies the preconditions of that argument and refuses anything
// else, so enabling windows is bit-identical to per-event execution by
// construction (Config.NoSpinWindows exists purely for A/B tests and
// perf comparisons).
//
// The engine hands the set over in firing order: its calendar queue
// keeps one FIFO bucket per cycle, so sim.Engine.ScanWindow walks the
// buckets from the front and returns the eligible run already sorted
// by (when, seq), and the commit (sim.Engine.FinishWindow) unlinks it
// and relinks each event at its retimed instant. One schedule serves
// every machine: on the bus all services are the one bus period, on a
// module machine spinners in different distance classes (cluster's
// intra- vs inter-hop periods) simply carry different S_k.
//
// A backoff spinner is never eligible: its probes, and any delay it
// schedules as an event, end the set like every other event and replay
// per-event, which is exact by definition. Nor does a machine with a
// fault plan form windows at all (Reset leaves winEnabled off), so no
// stall, degrade, crash or restart ever needs arguing here.
//
// Preconditions checked by tryWindow, and why each one matters:
//
//   - Every event in the set is the dispatch of a processor that sits
//     in a window-eligible test&set spin (kind spinTAS, phase
//     spTASJudge, zero Backoff, no deadline) on one shared address: its
//     eligibility bit is set, which means that dispatch is its only
//     pending event and carries the probed address in arg1. Anything
//     else — a goroutine's dispatch, a continuation, a TTAS burst
//     probe, a backoff probe or delay, a woken read-spin, or any event
//     the engine holds in its overflow heap (due a calendar span or
//     more ahead) — ends the set.
//   - The last probe each spinner issued read a non-zero value
//     (spin.val != 0), so every judge in the set fails, and the probed
//     word is non-zero, so every reissue reads non-zero too. A freed
//     word means a takeover is in flight — the first reissue would win
//     — and the takeover replays per-event.
//   - The probed word has no watchers: no probe wakes anybody.
//   - Bus: the word's exclusive owner is not the set's first spinner.
//     Every later probe is preceded by a different processor's probe,
//     so it is a full bus transaction; only the first could instead be
//     a cache hit, which would break the service schedule.
//   - Modules: every window spinner is remote to the word's home
//     module. A Topology is a stateless value, so Traversal prices a
//     spinner's hop the same for the whole storm and its service time
//     is a storm-stable constant. The home processor itself has a
//     shorter period; its events end the set instead.
//   - Saturation: the resource's free point F is at or past the last
//     pending probe completion, so every reissue queues on the resource
//     and completes after the whole set has popped. This holds whenever
//     the pending completions were themselves scheduled by the resource
//     (F *is* the last completion); the check guards the cold-start
//     transient.
//   - At least two probes: the first pop's reissue is still pending
//     when the last pop reissues, so no pop in the set can retire
//     inline.
//   - The pop budget: the set never exceeds the pops the engine may
//     still fire, so a livelocked storm trips ErrStepLimit at exactly
//     the event where per-event execution would.
const (
	// windowRetry is how many probes to wait before rescanning after a
	// failed attempt (storms that are structurally ineligible — backoff
	// spinners, watcher bursts — would otherwise pay a scan per probe);
	// windowRetryStorm is the shorter wait when an eligible storm was
	// found but transiently blocked (a winner mid-exit, a release in
	// flight).
	windowRetry      = 8
	windowRetryStorm = 2
	// windowMinPops is the smallest set a window commits: a lone
	// probe's reissue could find nothing pending before it and retire
	// inline instead of as an event.
	windowMinPops = 2
)

// The eligibility bitmask. Scanning the queue per attempt must not
// chase a pointer into every spinner's Proc struct, so the spin
// machinery maintains one bit per processor: set exactly while the
// processor's pending dispatch (if any) is a window-eligible test&set
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
// word's home module (a local spinner's shorter service period breaks
// the schedule the commit depends on).
// On success it caches the spinner's probe service time in
// spinState.winService (one topology hop-price call per spin entry,
// not per window scan); a zero-cost probe has no serial schedule and
// is never eligible.
func (m *Machine) winStatic(p *Proc, kind uint8, a Addr, bo Backoff) bool {
	if !m.winEnabled || kind != spinTAS || bo != (Backoff{}) {
		return false
	}
	switch m.disc {
	case topo.SnoopingBus:
		p.spin.winService = m.cfg.BusLatency
	case topo.Modules:
		mod := m.home(a)
		if mod == p.id {
			return false
		}
		p.spin.winService = localMem + m.topo.Traversal(p.id, mod, m.tm)
	default:
		return false
	}
	return p.spin.winService > 0
}

// tryWindow attempts one window commit; next is the address the
// queue's earliest event is probing (from the drive loop's peek). On
// failure it backs the trigger off; on success the streak resets (the
// next pop is the first retimed probe). Called from the drive loop
// only.
func (m *Machine) tryWindow(next Addr) {
	m.spinStreak = -windowRetry
	if m.winCount < 2 {
		return // a window needs at least two eligible spinners
	}
	if m.mem[next] == 0 {
		// A freed word means a takeover is in flight: the first reissue
		// would win. It replays per-event, and the storm resumes soon.
		m.spinStreak = -windowRetryStorm
		return
	}
	eng := m.eng
	// Collect the set in one engine-side walk of the queue in firing
	// order: eligible probes of the anchor address (classified by the
	// eligibility mask, no per-Proc pointer chasing) up to the first
	// other event. Anchoring on the next-to-fire probe's address keeps
	// a concurrent storm on another word from stealing the scan. The
	// set arrives in (when, seq) order, and it is exactly the next n
	// events to fire.
	addr := next
	set := eng.ScanWindow(sim.EvDispatch, int32(addr), m.winMask, m.winSet[:0])
	m.winSet = set // keep the grown buffer
	if len(set) < windowMinPops {
		return
	}

	// A storm is present; any remaining blocker is transient (a winner
	// draining out of the storm, a release in flight), so retry sooner
	// than the structural backoff would.
	m.spinStreak = -windowRetryStorm
	if m.watchHead[addr] != 0 {
		return
	}
	// Every pop charges exactly one step, so cutting the set at the pop
	// budget reproduces the per-event ErrStepLimit point exactly.
	if avail := eng.PopBudget(); uint64(len(set)) > avail {
		set = set[:avail]
	}
	n := len(set)
	if n < windowMinPops {
		return
	}
	// The serializing resource and its free point; the saturation
	// precondition (free at or past the last pending completion) makes
	// every reissue queue behind the whole set.
	bus := m.disc == topo.SnoopingBus
	mod := 0
	var free sim.Time
	if bus {
		free = m.busFreeAt
	} else {
		mod = m.home(addr)
		free = m.modFreeAt[mod]
	}
	if free < set[n-1].When {
		return // cold-start transient: let the per-event path reach saturation
	}
	if bus && m.owner[addr] == int16(set[0].Arg0)+1 {
		return // first probe would be a cache hit, not a bus transaction
	}

	// Commit. Pop i is the probe completion of set[i]; its reissue
	// completes at free plus the services of positions 0..i (cached at
	// spin entry in spinState.winService). spin.val is not
	// materialized: probe by probe it would be the value the spinner's
	// last probe read, but for a raw test&set wait val is dead beyond
	// its zero/non-zero-ness (the judge retries on non-zero; SpinTAS
	// discards the final value), and both the pre-window val and every
	// in-window read are provably non-zero, so skipping the write is
	// invisible.
	t := free
	for i := range set {
		p := m.procs[set[i].Arg0]
		t += p.spin.winService
		set[i].When = t
		p.stats.RMWs++
		if bus {
			p.stats.BusTxns++
		} else {
			p.stats.RemoteRefs++
		}
	}
	m.mem[addr] = 1
	pops := uint64(n)
	if bus {
		last := set[n-1].Arg0
		m.owner[addr] = int16(last) + 1
		m.sharers[addr] = uint64(1) << uint(last)
		m.busFreeAt = t
		m.stats.BusTxns += pops
	} else {
		m.modFreeAt[mod] = t
		m.stats.RemoteRefs += pops
	}
	m.stats.WindowOps += pops
	eng.FinishWindow(set)
	m.spinStreak = 0
}
