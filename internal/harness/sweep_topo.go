package harness

// Topology-axis sweeps. The canonical bus/numa figures (F1–F8, ...)
// keep their historical per-model tables; this file adds the seam new
// machine shapes plug into:
//
//   - X1/X2 put the topology itself on the matrix axis: one row per
//     registered topology, one column per lock, at a fixed processor
//     count — the quickest read on "what does this memory system do to
//     each algorithm".
//   - runTopoBattery runs the full simulated battery (locks, barriers,
//     reader-writer locks, semaphores, hot-spot counters) on each
//     selected topology and emits per-topology tables (L1-<name>,
//     L2-<name>, B1-<name>, R1-<name>, S1-<name>, C1-<name>). By
//     default it covers every registered topology beyond the canonical
//     bus/numa pair, so registering a topology is enough to get its
//     whole battery; -topo=... selects explicitly (canonical names
//     allowed, handy for A/B runs).
//
// Both resolve topologies strictly through topo.Registry — the same
// one-Register-call contract the algorithm families have.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
)

// ValidateTopos rejects topology names missing from the registry.
func ValidateTopos(names []string) error {
	var unknown []string
	for _, n := range names {
		if _, ok := topo.ByName(n); !ok {
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		known := topo.Names()
		sort.Strings(known)
		return fmt.Errorf("unknown topology(s) %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(known, " "))
	}
	return nil
}

// selectTopos resolves the -topo selection, or the default set when
// none was given.
func (o Options) selectTopos(deflt func(t topo.Topology) bool) []topo.Topology {
	if len(o.Topos) > 0 {
		var out []topo.Topology
		for _, t := range topo.Registry.All() {
			for _, n := range o.Topos {
				if t.Name() == n {
					out = append(out, t)
					break
				}
			}
		}
		return out
	}
	var out []topo.Topology
	for _, t := range topo.Registry.All() {
		if deflt(t) {
			out = append(out, t)
		}
	}
	return out
}

// axisTopos is the X1/X2 default: every registered topology with a
// real cost model (ideal exists for unit tests, not comparison).
func (o Options) axisTopos() []topo.Topology {
	return o.selectTopos(func(t topo.Topology) bool { return t != topo.Ideal })
}

// batteryTopos is the per-topology battery default: everything beyond
// the canonical pair (their batteries are the historical figures).
func (o Options) batteryTopos() []topo.Topology {
	return o.selectTopos(func(t topo.Topology) bool {
		return t != topo.Ideal && t != topo.Bus && t != topo.NUMA
	})
}

// topoProcs picks the processor axis for one topology: the numa-style
// ladder, clipped to the topology's own ceiling.
func (o Options) topoProcs(t topo.Topology) []int {
	base := o.numaProcs()
	if t.Discipline() == topo.SnoopingBus {
		base = o.busProcs()
	}
	return clipProcs(base, t.MaxProcs())
}

// ---------------------------------------------------------------------
// X1 + X2 — topology as the matrix axis
// ---------------------------------------------------------------------

func runTopoAxis(o Options) ([]Table, error) {
	p := 16
	if o.Quick {
		p = 8
	}
	topos := o.axisTopos()
	axis := make([]string, len(topos))
	for i, t := range topos {
		axis[i] = t.Name()
	}
	return runMatrix(o, true, algosFor(o, simsync.LockSet),
		func(li simsync.LockInfo) string { return li.Name },
		"topology", axis,
		[]metricSpec{
			{ID: "X1", Title: fmt.Sprintf("Cycles per critical section at P=%d across machine topologies", p),
				Note: "one row per registered topology: the cluster machine sits between bus and flat numa for local-spin queues, while remote-spin algorithms pay its inter-cluster traversals"},
			{ID: "X2", Title: fmt.Sprintf("Interconnect transactions per acquisition at P=%d across topologies", p),
				Note: "traffic in each topology's own headline metric (bus txns / remote refs); counts compare within a row's machine, not across machines"},
		},
		func(ai int, li simsync.LockInfo, pool *machine.Pool) ([]float64, error) {
			res, err := simsync.RunLockIn(pool,
				machine.Config{Procs: p, Topo: topos[ai], Seed: o.seed()},
				li, simLockOpts(o.lockIters()),
			)
			if err != nil {
				return nil, err
			}
			o.progressf("  %s %s P=%d: %.0f cyc/acq\n", topos[ai].Name(), li.Name, p, res.CyclesPerAcq)
			return []float64{res.CyclesPerAcq, res.TrafficPerAcq}, nil
		})
}

// ---------------------------------------------------------------------
// per-topology battery
// ---------------------------------------------------------------------

func runTopoBattery(o Options) ([]Table, error) {
	var tables []Table
	for _, tp := range o.batteryTopos() {
		ts, err := o.runBatteryOn(tp)
		if err != nil {
			return nil, fmt.Errorf("topology %s: %w", tp.Name(), err)
		}
		tables = append(tables, ts...)
	}
	return tables, nil
}

// runBatteryOn produces the six per-topology tables for tp.
func (o Options) runBatteryOn(tp topo.Topology) ([]Table, error) {
	name := tp.Name()
	unit := tp.Discipline().Unit()
	procs := o.topoProcs(tp)

	tables, _, err := lockSweep(o, tp, procs, []metricSpec{
		{ID: "L1-" + name, Title: fmt.Sprintf("Cycles per critical section vs processors (%s machine)", name),
			Note: "the lock sweep of F1/F3 on this topology"},
		{ID: "L2-" + name, Title: fmt.Sprintf("%s per acquisition vs processors (%s machine)", unit, name),
			Note: "the traffic sweep of F2/F4 on this topology"},
	})
	if err != nil {
		return nil, err
	}

	bar, err := barrierSweep(o, tp, procs, false, metricSpec{
		ID: "B1-" + name, Title: fmt.Sprintf("Barrier: cycles per episode vs processors (%s machine)", name),
		Note: "the barrier sweep of F7/F8 on this topology"})
	if err != nil {
		return nil, err
	}
	tables = append(tables, bar...)

	rw, err := o.rwBatteryOn(tp)
	if err != nil {
		return nil, err
	}
	sem, err := o.semBatteryOn(tp)
	if err != nil {
		return nil, err
	}
	ctr, err := o.counterBatteryOn(tp)
	if err != nil {
		return nil, err
	}
	return append(tables, rw, sem, ctr), nil
}

func (o Options) rwBatteryOn(tp topo.Topology) (Table, error) {
	p, iters := o.rwSweepSize()
	infos := algosFor(o, simsync.RWLockSet)
	cols := []string{"read fraction"}
	var names []string
	for _, info := range infos {
		names = append(names, info.Name)
		cols = append(cols, info.Name+" cyc/op")
	}
	t := Table{
		ID:    "R1-" + tp.Name(),
		Title: fmt.Sprintf("Reader-writer locks on the %s machine at P=%d: cycles per operation", tp.Name(), p),
		Note:  "the F13 sweep on this topology",
		Cols:  cols,
	}
	fracs := rwFracs()
	results := make([]simsync.RWResult, len(fracs)*len(infos))
	err := o.forEachCell(true, names, len(results), func(cell int, pool *machine.Pool) error {
		fi, ii := cell/len(infos), cell%len(infos)
		res, rerr := simsync.RunRWIn(pool,
			machine.Config{Procs: p, Topo: tp, Seed: o.seed()},
			infos[ii],
			simRWOpts(iters, fracs[fi]),
		)
		if rerr != nil {
			return rerr
		}
		results[cell] = res
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	for fi, frac := range fracs {
		row := []string{fmt.Sprintf("%.2f", frac)}
		for ii := range infos {
			row = append(row, Fmt(results[fi*len(infos)+ii].CyclesPerOp))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (o Options) semBatteryOn(tp topo.Topology) (Table, error) {
	items, procsList := o.semSweepSize()
	infos := algosFor(o, simsync.SemaphoreSet)
	cols := []string{"P"}
	var names []string
	for _, info := range infos {
		names = append(names, info.Name)
		cols = append(cols, info.Name+" cyc/item")
	}
	t := Table{
		ID:    "S1-" + tp.Name(),
		Title: fmt.Sprintf("Bounded-buffer producer/consumer on the %s machine: cycles per item", tp.Name()),
		Note:  "the F14 sweep on this topology; the sharded semaphore keeps permits circulating inside a cluster",
		Cols:  cols,
	}
	results := make([]simsync.PCResult, len(procsList)*len(infos))
	err := o.forEachCell(true, names, len(results), func(cell int, pool *machine.Pool) error {
		pi, ii := cell/len(infos), cell%len(infos)
		res, rerr := simsync.RunProducerConsumerIn(pool,
			machine.Config{Procs: procsList[pi], Topo: tp, Seed: o.seed()},
			infos[ii],
			simPCOpts(items),
		)
		if rerr != nil {
			return rerr
		}
		results[cell] = res
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	for pi, p := range procsList {
		row := []string{Fmt(float64(p))}
		for ii := range infos {
			row = append(row, Fmt(results[pi*len(infos)+ii].CyclesPerItem))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func (o Options) counterBatteryOn(tp topo.Topology) (Table, error) {
	incs, procsList := o.counterSweepSize()
	procsList = clipProcs(procsList, tp.MaxProcs())
	infos := algosFor(o, simsync.CounterSet)
	cols := []string{"P"}
	var names []string
	for _, info := range infos {
		names = append(names, info.Name)
		cols = append(cols, info.Name+" cyc/inc")
	}
	for _, info := range infos {
		cols = append(cols, info.Name+" refs/inc")
	}
	t := Table{
		ID:    "C1-" + tp.Name(),
		Title: fmt.Sprintf("Hot-spot counter on the %s machine: cycles and %s per increment", tp.Name(), tp.Discipline().Unit()),
		Note:  "the F16 sweep on this topology; group-home placement keeps sharded-counter traffic off the inter-cluster links",
		Cols:  cols,
	}
	results := make([]simsync.CounterResult, len(procsList)*len(infos))
	err := o.forEachCell(true, names, len(results), func(cell int, pool *machine.Pool) error {
		pi, ii := cell/len(infos), cell%len(infos)
		res, rerr := simsync.RunCounterIn(pool,
			machine.Config{Procs: procsList[pi], Topo: tp, Seed: o.seed()},
			infos[ii],
			simsync.CounterOpts{Incs: incs},
		)
		if rerr != nil {
			return rerr
		}
		results[cell] = res
		return nil
	})
	if err != nil {
		return Table{}, err
	}
	for pi, p := range procsList {
		row := []string{Fmt(float64(p))}
		var refs []string
		for ii := range infos {
			res := results[pi*len(infos)+ii]
			row = append(row, Fmt(res.CyclesPerInc))
			refs = append(refs, Fmt(res.TrafficPerInc))
		}
		row = append(row, refs...)
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
