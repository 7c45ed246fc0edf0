package harness

// FT1 + FT2 — graceful degradation under deterministic fault injection.
//
// Each row fixes a (topology, fault level) pair; each column is one
// lock discipline driven through the same fault plan. FT1 reports how
// the run ended (ok / steplimit / deadlock) together with the fraction
// of the offered work that completed; FT2 reports throughput. Degraded
// outcomes are data: a blocking lock wedged behind a crashed holder is
// the baseline the bounded and lease disciplines are measured against,
// so an ErrStepLimit cell renders as a row entry, never as a sweep
// failure. Every plan is generated from the sweep seed, so the whole
// matrix is bit-reproducible.
//
// The fault-intensity axis is the exported, named FaultLevels registry
// (selected with -faults=); the crash-with-restart levels (R1, R2)
// drive the FT3/FT4 recovery sweeps in sweep_recovery.go.

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/simsync"
	"repro/internal/topo"
)

// FaultLevel is one named intensity step of the injected fault load,
// selectable by name with the -faults= flag.
type FaultLevel struct {
	Name string
	// Note is the one-line description shown by listing flags.
	Note string
	// None marks the fault-free baseline (no plan is generated).
	None bool
	// Recovery marks levels whose crashes carry restarts; the FT3/FT4
	// sweeps default to these.
	Recovery bool
	// Spec generates the fault spec for a run of procs processors each
	// offering iters operations; the plan horizon is sized to the
	// offered work so generated fault times land inside the run.
	Spec func(procs, iters int) fault.Spec
}

// mkFaultSpec fixes the interval shapes shared by every level: stalls
// of 500–2000 cycles (at most the failure-detector threshold, so no
// stall ever reads as a false-positive suspicion), degrades of
// 2000–8000 cycles, and — for recovery levels — restarts 3000–8000
// cycles after their crash (past the suspicion threshold, so the
// detector observably fires before the rebirth).
func mkFaultSpec(stalls, crashes, restarts, degrades, factorMax int) func(procs, iters int) fault.Spec {
	return func(procs, iters int) fault.Spec {
		horizon := sim.Time(iters) * sim.Time(procs) * 30
		return fault.Spec{
			Procs:   procs,
			Horizon: horizon,
			Stalls:  stalls, StallMin: 500, StallMax: 2000,
			Crashes:  crashes,
			Restarts: restarts, RestartDelayMin: 3000, RestartDelayMax: 8000,
			Degrades: degrades, DegradeMin: 2000, DegradeMax: 8000,
			FactorMax: factorMax,
		}
	}
}

// FaultLevels returns the named fault-intensity registry in canonical
// order: the fail-stop ramp L0–L3, then the crash-recovery levels.
func FaultLevels() []FaultLevel {
	return []FaultLevel{
		{Name: "L0", Note: "fault-free baseline", None: true},
		{Name: "L1", Note: "stalls and module degrades, no crashes", Spec: mkFaultSpec(4, 0, 0, 2, 4)},
		{Name: "L2", Note: "L1 plus one fail-stop crash", Spec: mkFaultSpec(4, 1, 0, 2, 4)},
		{Name: "L3", Note: "heavy: eight stalls, two fail-stop crashes, deep degrades", Spec: mkFaultSpec(8, 2, 0, 4, 8)},
		{Name: "R1", Note: "one crash with restart, light stalls and degrades", Recovery: true, Spec: mkFaultSpec(2, 1, 1, 1, 4)},
		{Name: "R2", Note: "two crashes with restarts, heavier stalls and degrades", Recovery: true, Spec: mkFaultSpec(4, 2, 2, 2, 8)},
	}
}

// FaultLevelByName resolves a fault level case-insensitively.
func FaultLevelByName(name string) (FaultLevel, bool) {
	name = strings.TrimSpace(name)
	for _, lv := range FaultLevels() {
		if strings.EqualFold(lv.Name, name) {
			return lv, true
		}
	}
	return FaultLevel{}, false
}

// ValidateFaults rejects unknown fault-level names (the -faults= flag's
// strict check, mirroring the topology flag).
func ValidateFaults(names []string) error {
	var known []string
	for _, lv := range FaultLevels() {
		known = append(known, lv.Name)
	}
	for _, n := range names {
		if _, ok := FaultLevelByName(n); !ok {
			return fmt.Errorf("harness: unknown fault level %q (known: %s)", n, strings.Join(known, " "))
		}
	}
	return nil
}

// faultAxis resolves the fault-level axis for one sweep: the Options
// selection when -faults= was given, the sweep's defaults otherwise.
func (o Options) faultAxis(defaults []string) ([]FaultLevel, error) {
	names := defaults
	if len(o.Faults) > 0 {
		names = o.Faults
	}
	var levels []FaultLevel
	for _, n := range names {
		lv, ok := FaultLevelByName(n)
		if !ok {
			return nil, fmt.Errorf("harness: unknown fault level %q", n)
		}
		levels = append(levels, lv)
	}
	return levels, nil
}

// ft12Defaults is the FT1/FT2 axis: the fail-stop ramp.
func (o Options) ft12Defaults() []string {
	if o.Quick {
		return []string{"L0", "L2"}
	}
	return []string{"L0", "L1", "L2", "L3"}
}

// faultLocks is the FT column set: the blocking baselines (tas, tas-bo,
// qsync), the bounded-wait lock (driven by its bounded attempt), and a
// lease lock whose term is long enough that no stall can outlive it —
// only a crash triggers takeover, so its mutual-exclusion check stays
// exact under every level.
func faultLocks() []simsync.LockInfo {
	td, _ := simsync.LockByName("tas-deadline")
	infos := []simsync.LockInfo{}
	for _, n := range []string{"tas", "tas-bo"} {
		li, _ := simsync.LockByName(n)
		infos = append(infos, li)
	}
	infos = append(infos, td,
		simsync.LockInfo{Name: "lease-ft", Make: func(m *machine.Machine) simsync.Lock {
			// Term 16000 >> StallMax + CS residence: a stalled live
			// holder always finishes inside its lease; a crashed one
			// expires and is taken over.
			return simsync.NewLeaseTerm(m, 16000, 64)
		}})
	qs, _ := simsync.LockByName("qsync")
	return append(infos, qs)
}

func runFaultSweep(o Options) ([]Table, error) {
	procs := 16
	maxSteps := uint64(2_000_000)
	iters := o.lockIters()
	if o.Quick {
		procs = 8
		maxSteps = 300_000
	}
	topos := o.axisTopos()
	levels, err := o.faultAxis(o.ft12Defaults())
	if err != nil {
		return nil, err
	}
	for _, lv := range levels {
		// FT1/FT2 are the fail-stop ramp. The restart levels belong to
		// FT3/FT4, which measure availability against a fault-free twin
		// and time-to-recovery.
		if lv.Recovery {
			return nil, fmt.Errorf("harness: fault level %q carries restarts; FT1/FT2 are fail-stop experiments — run FT3/FT4 for the recovery levels", lv.Name)
		}
	}
	infos := faultLocks()
	cols := []string{"topo/level"}
	for _, li := range infos {
		cols = append(cols, li.Name)
	}

	type rowKey struct {
		tp    topo.Topology
		level FaultLevel
		plan  *fault.Plan
	}
	var rows []rowKey
	for ti, tp := range topos {
		for li, lv := range levels {
			plan := fault.NewPlan(lv.Name)
			if !lv.None {
				// One plan per row, shared by every lock column, so the
				// columns are hit by the same stalls/crashes/degrades.
				seed := o.seed()*1000 + uint64(ti)*16 + uint64(li)
				plan = fault.Generate(fmt.Sprintf("%s/%s", tp.Name(), lv.Name), seed, lv.Spec(procs, iters))
			}
			rows = append(rows, rowKey{tp: tp, level: lv, plan: plan})
		}
	}

	results, err := cells(o, true, len(rows), cols[1:], func(ri, ci int, pool *machine.Pool) (simsync.LockResult, error) {
		row := rows[ri]
		res, err := simsync.RunLockIn(pool,
			machine.Config{Procs: procs, Topo: row.tp, Seed: o.seed(), Faults: row.plan, MaxSteps: maxSteps},
			infos[ci], simsync.LockOpts{
				Iters: iters, CS: 25, Think: 50,
				Budget: 4096, // bounded locks give up a slice after this
				// A timed-out attempt still spends one of the processor's
				// iterations: the completed fraction is the offered work
				// that got through.
				MaxAttempts: iters,
			})
		if err == nil {
			o.progressf("  %s %s %s: %s, %d/%d acq, %d timeouts, %d crashed\n",
				row.tp.Name(), row.level.Name, res.Lock, res.Outcome,
				res.Acquisitions, uint64(iters)*uint64(procs), res.Timeouts, res.Crashed)
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}

	ft1 := Table{
		ID:    "FT1",
		Title: fmt.Sprintf("Run outcome and completed fraction under fault injection at P=%d", procs),
		Note:  "outcome + % of offered acquisitions completed; blocking locks wedge (steplimit/deadlock) once a crash lands, bounded and lease locks stay ok with partial completion",
		Cols:  cols,
	}
	ft2 := Table{
		ID:    "FT2",
		Title: fmt.Sprintf("Lock throughput (acquisitions per kilocycle) under fault injection at P=%d", procs),
		Note:  "same matrix as FT1; wedged cells report throughput up to the cutoff, so they understate only as much as the wedge itself does",
		Cols:  cols,
	}
	offered := uint64(iters) * uint64(procs)
	for ri, row := range rows {
		label := row.tp.Name() + "/" + row.level.Name
		r1 := []string{label}
		r2 := []string{label}
		for _, res := range results[ri*len(infos) : (ri+1)*len(infos)] {
			pct := 100 * float64(res.Acquisitions) / float64(offered)
			r1 = append(r1, fmt.Sprintf("%s %.0f%%", res.Outcome, pct))
			r2 = append(r2, Fmt(res.AcqPerKCycle()))
		}
		ft1.Rows = append(ft1.Rows, r1)
		ft2.Rows = append(ft2.Rows, r2)
	}
	return []Table{ft1, ft2}, nil
}
