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

	p, _ := o.rwSweepSize()
	for _, sweep := range []struct {
		run func(Options, layout) ([]Table, error)
		lay layout
	}{
		{rwSweep, layout{id: "R1-" + name, tp: tp,
			title: fmt.Sprintf("Reader-writer locks on the %s machine at P=%d: cycles per operation", name, p),
			note:  "the F13 sweep on this topology"}},
		{semSweep, layout{id: "S1-" + name, tp: tp,
			title: fmt.Sprintf("Bounded-buffer producer/consumer on the %s machine: cycles per item", name),
			note:  "the F14 sweep on this topology; the sharded semaphore keeps permits circulating inside a cluster"}},
		{counterSweep, layout{id: "C1-" + name, tp: tp,
			title: fmt.Sprintf("Hot-spot counter on the %s machine: cycles and %s per increment", name, unit),
			note:  "the F16 sweep on this topology; group-home placement keeps sharded-counter traffic off the inter-cluster links"}},
	} {
		ts, err := sweep.run(o, sweep.lay)
		if err != nil {
			return nil, err
		}
		tables = append(tables, ts...)
	}
	return tables, nil
}
