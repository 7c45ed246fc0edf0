package harness

// FT3 + FT4 — crash recovery and self-healing synchronization.
//
// FT1/FT2 established the fail-stop story: a crash wedges the blocking
// disciplines and the bounded/lease ones degrade gracefully. These
// sweeps extend the axis to crash-with-restart plans (the R levels) and
// the self-healing primitives, reporting per cell:
//
//   - availability: operations completed as a fraction of the same
//     (topology, discipline) cell's fault-free twin — a dedicated
//     baseline run, so the measure survives -faults= selections that
//     omit L0;
//   - mean time-to-recovery (ttr): cycles from each rebirth to the
//     reborn processor's first completed operation, averaged;
//   - orphaned acquisitions (orph): reclaims from a dead or reborn
//     holder — a protocol-level event the resilient locks make safe;
//   - fenced writes (fenced): critical-section stores suppressed by the
//     fencing-token check (lease-fence only).
//
// FT3's acceptance property: qheal (the excising queue lock) completes
// its episodes at the crash levels where plain qsync wedges, with a
// measured time-to-recovery; FT4's: the reconfigurable barrier keeps
// completing episodes through crash and rebirth where the central
// barrier stalls until the restart (fail-stop: forever).

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
)

// ftRecoveryDefaults is the FT3/FT4 axis: fault-free baseline, the
// fail-stop crash level for contrast, then the restart plans.
func (o Options) ftRecoveryDefaults() []string {
	if o.Quick {
		return []string{"L0", "R1"}
	}
	return []string{"L0", "L2", "R1", "R2"}
}

// recoveryLocks is the FT3 column set: the FT2 survivors (tas-deadline,
// lease) next to the self-healing disciplines, with plain qsync as the
// wedge baseline. Terms and graces mirror lease-ft: long enough that no
// stall can trigger them, short enough that a crash does.
func recoveryLocks() []simsync.LockInfo {
	td, _ := simsync.LockByName("tas-deadline")
	qs, _ := simsync.LockByName("qsync")
	return []simsync.LockInfo{
		qs,
		td,
		{Name: "lease-ft", Make: func(m *machine.Machine) simsync.Lock {
			return simsync.NewLeaseTerm(m, 16000, 64)
		}},
		{Name: "fence-ft", Make: func(m *machine.Machine) simsync.Lock {
			return simsync.NewLeaseFenceTerm(m, 16000, 64)
		}},
		{Name: "qheal-ft", FIFO: true, Make: func(m *machine.Machine) simsync.Lock {
			// Grace 32768 >> any live head residence (CS + stall +
			// hand-off), so only the failure detector — or a truly
			// stuck head whose owner's suspicion already cleared at
			// rebirth — triggers excision.
			return simsync.NewHealQueueGrace(m, 32768, 64)
		}},
	}
}

// recoveryBarriers is the FT4 column set: the registered central
// barrier next to the fault-parameterized straggler and reconfigurable
// barriers.
func recoveryBarriers() []simsync.BarrierInfo {
	central, _ := simsync.BarrierByName("central")
	return []simsync.BarrierInfo{
		central,
		{Name: "straggler", Make: func(m *machine.Machine) simsync.Barrier {
			return simsync.NewStragglerBarrier(m, 4096)
		}},
		{Name: "reconf", Make: func(m *machine.Machine) simsync.Barrier {
			return simsync.NewReconfBudget(m, 4096)
		}},
	}
}

// recoveryCell renders the common cell shape: outcome, availability
// against the fault-free twin, then whichever recovery metrics the run
// produced.
func recoveryCell(r simsync.Resilience, ops, baseline, orphaned, fenced uint64) string {
	avail := 100.0
	if baseline > 0 {
		avail = 100 * float64(ops) / float64(baseline)
	}
	cell := fmt.Sprintf("%s %.0f%%", r.Outcome, avail)
	if r.Recoveries > 0 {
		cell += fmt.Sprintf(" ttr=%d", int64(r.RecoveryCycles)/int64(r.Recoveries))
	}
	if orphaned > 0 {
		cell += fmt.Sprintf(" orph=%d", orphaned)
	}
	if fenced > 0 {
		cell += fmt.Sprintf(" fenced=%d", fenced)
	}
	return cell
}

func runRecoverySweep(o Options) ([]Table, error) {
	procs := 16
	barProcs := 32
	maxSteps := uint64(2_000_000)
	iters := o.lockIters()
	episodes := o.episodes()
	if o.Quick {
		procs = 8
		barProcs = 8
		maxSteps = 500_000
	}
	topos := o.axisTopos()
	levels, err := o.faultAxis(o.ftRecoveryDefaults())
	if err != nil {
		return nil, err
	}
	locks := recoveryLocks()
	bars := recoveryBarriers()
	lockCols := []string{"topo/level"}
	for _, li := range locks {
		lockCols = append(lockCols, li.Name)
	}
	barCols := []string{"topo/level"}
	for _, b := range bars {
		barCols = append(barCols, b.Name)
	}
	// A cell's column: the locks', then the barriers'.
	names := append(append([]string(nil), lockCols[1:]...), barCols[1:]...)

	type rowKey struct {
		tp    topo.Topology
		level FaultLevel
		plan  *fault.Plan // lock-sweep plan; nil for a fault-free level
		bplan *fault.Plan // barrier-sweep plan (sized to barProcs)
	}
	var rows []rowKey
	for ti, tp := range topos {
		for li, lv := range levels {
			row := rowKey{tp: tp, level: lv}
			if !lv.None {
				seed := o.seed()*4096 + uint64(ti)*64 + uint64(li)
				row.plan = fault.Generate(fmt.Sprintf("%s/%s", tp.Name(), lv.Name), seed, lv.Spec(procs, iters))
				row.bplan = fault.Generate(fmt.Sprintf("%s/%s/bar", tp.Name(), lv.Name), seed+17, lv.Spec(barProcs, episodes))
			}
			rows = append(rows, row)
		}
	}

	lockOpts := simsync.LockOpts{Iters: iters, CS: 25, Think: 50, Budget: 4096}
	barOpts := simsync.BarrierOpts{Episodes: episodes, Work: 150}
	empty := fault.NewPlan("L0")

	// runCell runs column ci on tp: a lock under plan, or a barrier
	// under bplan. The other result stays zero.
	runCell := func(pool *machine.Pool, tp topo.Topology, ci int, plan, bplan *fault.Plan) (lr simsync.LockResult, br simsync.BarrierResult, err error) {
		if ci < len(locks) {
			lr, err = simsync.RunLockIn(pool,
				machine.Config{Procs: procs, Topo: tp, Seed: o.seed(), Faults: plan, MaxSteps: maxSteps},
				locks[ci], lockOpts)
		} else {
			br, err = simsync.RunBarrierIn(pool,
				machine.Config{Procs: barProcs, Topo: tp, Seed: o.seed(), Faults: bplan, MaxSteps: maxSteps},
				bars[ci-len(locks)], barOpts)
		}
		return lr, br, err
	}

	// Fault-free twins: one per (topology, column), the availability
	// denominator for every level row of that topology (a twin's count
	// is its acquisitions or its completed episodes) and the result a
	// fault-free level's row renders without running the cell again.
	type twin struct {
		lr simsync.LockResult
		br simsync.BarrierResult
	}
	twins, err := cells(o, true, len(topos), names, func(ti, ci int, pool *machine.Pool) (twin, error) {
		lr, br, err := runCell(pool, topos[ti], ci, empty, empty)
		return twin{lr, br}, err
	})
	if err != nil {
		return nil, err
	}

	// Each level cell renders against its topology's twin.
	rendered, err := cells(o, true, len(rows), names, func(ri, ci int, pool *machine.Pool) (string, error) {
		row := rows[ri]
		tw := twins[(ri/len(levels))*len(names)+ci]
		lr, br := tw.lr, tw.br
		if !row.level.None {
			var err error
			if lr, br, err = runCell(pool, row.tp, ci, row.plan, row.bplan); err != nil {
				return "", err
			}
		}
		baseline := tw.lr.Acquisitions + tw.br.Completed
		if ci < len(locks) {
			o.progressf("  %s %s %s: %s, %d acq, %d orphaned, %d recovered\n",
				row.tp.Name(), row.level.Name, lr.Lock, lr.Outcome,
				lr.Acquisitions, lr.Orphaned, lr.Recovered)
			return recoveryCell(lr.Resilience, lr.Acquisitions, baseline, lr.Orphaned, lr.StaleWrites), nil
		}
		o.progressf("  %s %s %s: %s, %d episodes, %d recovered\n",
			row.tp.Name(), row.level.Name, br.Barrier, br.Outcome,
			br.Completed, br.Recovered)
		return recoveryCell(br.Resilience, br.Completed, baseline, 0, 0), nil
	})
	if err != nil {
		return nil, err
	}

	ft3 := Table{
		ID:    "FT3",
		Title: fmt.Sprintf("Lock availability and time-to-recovery under crash-with-restart plans at P=%d", procs),
		Note:  "outcome + completed ops vs fault-free twin; ttr = mean cycles from rebirth to first reacquisition, orph = reclaims from dead/reborn holders, fenced = stale CS writes suppressed; qsync wedges where qheal heals the queue",
		Cols:  lockCols,
	}
	ft4 := Table{
		ID:    "FT4",
		Title: fmt.Sprintf("Barrier availability and time-to-recovery under crash-with-restart plans at P=%d", barProcs),
		Note:  "outcome + completed episodes vs fault-free twin; central stalls every survivor until the restart (fail-stop: forever), reconf evicts the corpse and readmits it at rebirth",
		Cols:  barCols,
	}
	for ri, row := range rows {
		label := row.tp.Name() + "/" + row.level.Name
		r := rendered[ri*len(names) : (ri+1)*len(names)]
		ft3.AddRow(append([]string{label}, r[:len(locks)]...)...)
		ft4.AddRow(append([]string{label}, r[len(locks):]...)...)
	}
	return []Table{ft3, ft4}, nil
}
