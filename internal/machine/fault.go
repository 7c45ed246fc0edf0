package machine

import (
	"sort"

	"repro/internal/fault"
	"repro/internal/sim"
)

// This file compiles a fault.Plan against one machine shape and answers
// the drive loop's fault queries. The design constraints, in order:
//
//   - Nil-plan invariance: with Config.Faults unset, no fault code runs
//     at all — every query site guards on m.flt != nil — so fault-free
//     runs are bit-identical to pre-fault builds, allocation for
//     allocation.
//   - Determinism: the compiled tables are pure data derived from the
//     plan; the drive loop consults them at event-delivery time only,
//     so the same plan on the same config yields bit-identical runs.
//   - Window exactness: a faulted machine forms no spin windows (Reset
//     leaves them off whenever a plan compiles to fault state), so
//     every pop replays per event and the windows on/off A/B invariant
//     holds under every plan without a per-fault-kind argument.
//
// Fault semantics implemented here and in the drive loop:
//
//   - Stall [start, end) of processor p: every dispatch addressed to p
//     inside the window is retimed to end (one extra engine event per
//     deferred delivery). Inline run-ahead is not preempted — a
//     stall suspends event delivery, the model's stand-in for the OS
//     descheduling the thread between observable memory operations.
//   - Crash of processor p at time t: an EvFault event scheduled at t
//     (before any program event, so it carries the smallest sequence
//     number at its instant) marks p crashed; p's pending events are
//     dropped on delivery and its goroutine unwinds at teardown. The
//     pending EvFault also bounds every processor's inline lookahead,
//     so no operation of p completes at or after t — words p holds at
//     the crash stay held, which is the behavior the robust primitives
//     are measured against.
//   - Restart of processor p at time r: the EvFault delivery arms an
//     EvRecover at r (only when the crash materialized, so crashes
//     drawn past the run's natural end stay inert together with their
//     restarts). The EvRecover delivery purges p's stale wakeups,
//     resets its proc-local state, re-derives its RNG stream, and
//     re-enters its program body at the recovery entry point. Nothing
//     is released on p's behalf. A processor crashes at most once and
//     recovers at most once per run: the compile keeps the earliest
//     crash and the earliest restart strictly after it.
//   - The heartbeat failure detector is compiled here too, with the
//     fixed threshold suspectAfter (2000 cycles): processor p is
//     suspected from crash+suspectAfter until its restart (forever,
//     failing one), and a stall longer than suspectAfter reads as a
//     false positive for its remainder. Suspicion is pure compiled
//     data — queries (Proc.Suspects) draw nothing and cost nothing, so
//     the detector cannot perturb timing.
//   - Degrade [start, end) of module m by factor f: the network
//     traversal term of every access serviced by m and issued in the
//     window is scaled by f (module topologies only; the local-memory
//     term and bus machines are unaffected). Pricing is decided at
//     issue time, matching the occupancy model.

// faultSpan is one compiled interval, [start, end).
type faultSpan struct {
	start, end sim.Time
	factor     int // degrade factor; unused for stalls
}

// machineFaults is the compiled plan, queried at event delivery
// (stalls, crashes, restarts), at access pricing (degrades) and by
// Proc.Suspects. Entry lists are tiny (a handful of faults per run), so
// queries scan linearly.
type machineFaults struct {
	stalls    [][]faultSpan // per processor: sorted, merged, disjoint
	crashAt   []sim.Time    // per processor: earliest crash instant, or -1
	restartAt []sim.Time    // per processor: earliest restart after the crash, or -1
	degrades  [][]faultSpan // per module: sorted by start (largest covering factor wins)
	suspect   [][]faultSpan // per processor: failure-detector suspicion intervals
}

// suspectForever stands in for an open-ended suspicion interval (a
// crash with no restart); no run reaches this instant.
const suspectForever = sim.Time(1) << 62

// compileFaults builds the per-machine tables. Entries that do not
// apply to this shape — indices out of range, empty intervals,
// factors <= 1, negative times — are skipped, so one plan is portable
// across machine sizes.
func compileFaults(p *fault.Plan, procs int) *machineFaults {
	f := &machineFaults{
		stalls:    make([][]faultSpan, procs),
		crashAt:   make([]sim.Time, procs),
		restartAt: make([]sim.Time, procs),
		degrades:  make([][]faultSpan, procs),
		suspect:   make([][]faultSpan, procs),
	}
	for i := range f.crashAt {
		f.crashAt[i] = -1
		f.restartAt[i] = -1
	}
	// applied counts the entries that apply to this shape; a restart
	// applies only with a crash, which is counted already.
	applied := 0
	for _, s := range p.Stalls() {
		if s.Proc < 0 || s.Proc >= procs || s.Start < 0 || s.End <= s.Start {
			continue
		}
		f.stalls[s.Proc] = append(f.stalls[s.Proc], faultSpan{start: s.Start, end: s.End})
		applied++
	}
	for _, c := range p.Crashes() {
		if c.Proc < 0 || c.Proc >= procs || c.At < 0 {
			continue
		}
		if f.crashAt[c.Proc] < 0 || c.At < f.crashAt[c.Proc] {
			f.crashAt[c.Proc] = c.At
		}
		applied++
	}
	for _, r := range p.Restarts() {
		// A restart is live only when this shape also crashes the same
		// processor earlier; the earliest qualifying restart wins.
		if r.Proc < 0 || r.Proc >= procs || r.At < 0 {
			continue
		}
		c := f.crashAt[r.Proc]
		if c < 0 || r.At <= c {
			continue
		}
		if f.restartAt[r.Proc] < 0 || r.At < f.restartAt[r.Proc] {
			f.restartAt[r.Proc] = r.At
		}
	}
	for _, d := range p.Degrades() {
		if d.Module < 0 || d.Module >= procs || d.Start < 0 || d.End <= d.Start || d.Factor <= 1 {
			continue
		}
		f.degrades[d.Module] = append(f.degrades[d.Module], faultSpan{start: d.Start, end: d.End, factor: d.Factor})
		applied++
	}
	if applied == 0 {
		// Every entry was inert for this shape: compile to "no faults"
		// so the run takes the nil-plan path exactly (no EvFault
		// scheduling, no per-delivery checks, spin windows on).
		return nil
	}
	for i := range f.stalls {
		f.stalls[i] = mergeSpans(f.stalls[i])
	}
	// Compile the heartbeat failure detector's suspicion intervals. A
	// processor silent for suspectAfter cycles is suspected: a crash
	// from crash+suspectAfter until its restart (forever without one),
	// and any single stall longer than suspectAfter from
	// stall-start+suspectAfter until the stall ends — the detector's
	// honest false-positive mode. Suspicion gates no event timing,
	// only Suspects queries.
	for i := range f.suspect {
		var spans []faultSpan
		if c := f.crashAt[i]; c >= 0 {
			end := suspectForever
			if f.restartAt[i] >= 0 {
				end = f.restartAt[i]
			}
			if c+suspectAfter < end {
				spans = append(spans, faultSpan{start: c + suspectAfter, end: end})
			}
		}
		for _, s := range f.stalls[i] {
			if s.end-s.start > suspectAfter {
				spans = append(spans, faultSpan{start: s.start + suspectAfter, end: s.end})
			}
		}
		f.suspect[i] = mergeSpans(spans)
	}
	for i := range f.degrades {
		sort.Slice(f.degrades[i], func(a, b int) bool {
			return f.degrades[i][a].start < f.degrades[i][b].start
		})
	}
	return f
}

// mergeSpans sorts spans by start and merges overlapping or adjacent
// ones. Merged lists are disjoint with gaps between consecutive spans,
// which is what guarantees a deferred delivery at a span's end is not
// immediately deferred again.
func mergeSpans(spans []faultSpan) []faultSpan {
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	out := spans[:1]
	for _, s := range spans[1:] {
		if last := &out[len(out)-1]; s.start <= last.end {
			if s.end > last.end {
				last.end = s.end
			}
		} else {
			out = append(out, s)
		}
	}
	return out
}

// stallEnd returns the end of the stall interval covering processor pid
// at time t, or t itself when pid is not stalled then.
func (f *machineFaults) stallEnd(pid int, t sim.Time) sim.Time {
	for _, s := range f.stalls[pid] {
		if s.start > t {
			break
		}
		if t < s.end {
			return s.end
		}
	}
	return t
}

// degradeFactor returns the traversal scale factor for module mod at
// time t (1 when undegraded; overlapping intervals take the largest).
func (f *machineFaults) degradeFactor(mod int, t sim.Time) int {
	factor := 1
	for _, d := range f.degrades[mod] {
		if d.start > t {
			break
		}
		if t < d.end && d.factor > factor {
			factor = d.factor
		}
	}
	return factor
}

// Crashed reports whether processor i is crashed right now (a reborn
// processor no longer is). Host-side harness code uses it to tell a
// dead lock holder from a mutual-exclusion violation.
func (m *Machine) Crashed(i int) bool { return m.procs[i].crashed }

// Incarnation returns how many times processor i has been reborn: 0
// for a processor that never recovered from a crash, 1 after its
// revival. Harness code records the incarnation a value was written
// under, so a reclaim from a holder that has since died AND recovered
// is still recognizable as a takeover rather than a violation.
func (m *Machine) Incarnation(i int) int { return m.procs[i].incarnation }

// SuspectedAt reports whether the deterministic heartbeat failure
// detector suspects processor q dead at time t. Pure table lookup over
// the compiled plan — see Proc.Suspects for the model and the
// determinism argument.
func (m *Machine) SuspectedAt(q int, t sim.Time) bool {
	if m.flt == nil {
		return false
	}
	for _, s := range m.flt.suspect[q] {
		if s.start > t {
			return false
		}
		if t < s.end {
			return true
		}
	}
	return false
}
