package harness

// Reader-writer sweeps: F9 (real runtime, over the locks.RWRegistry —
// the mechanism's fair lock, the sharded reader-biased lock, and the
// standard library) and F13 (simulated, over simsync.RWLockSet).

import (
	"fmt"
	"runtime"

	"repro/internal/locks"
	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
	"repro/internal/workload"
)

func runF9(o Options) ([]Table, error) {
	iters := 4000
	if o.Quick {
		iters = 400
	}
	gor := runtime.GOMAXPROCS(0)
	if gor > 16 {
		gor = 16
	}
	// The whole rwlock registry, rw-mutex baseline included — so the
	// baseline is selectable and filterable like any other backend.
	algos := algosFor(o, locks.RWRegistry)

	fracs := []float64{0, 0.5, 0.9, 0.99, 1}
	axis := make([]string, len(fracs))
	for i, f := range fracs {
		axis[i] = fmt.Sprintf("%.2f", f)
	}
	// Real runtime: cells time the host and must not run concurrently;
	// the watchdog turns a wedged lock into a "!timeout" cell. The
	// latency tables share the throughput table's cells.
	return runMatrixTimeout(o, realCellTimeout, algos, func(i locks.RWInfo) string { return i.Name },
		"read fraction", axis,
		[]metricSpec{{ID: "F9",
			Title: fmt.Sprintf("Reader-writer throughput (ops/s) vs read fraction (%d goroutines, real runtime)", gor),
			Note:  "rw locks overtake the plain mutex as the read fraction approaches 1; the sharded lock pulls ahead at high read fractions and pays for it on writes"},
			{ID: "F9-p50",
				Title: fmt.Sprintf("p50 section latency (ns) vs read fraction (%d goroutines, real runtime)", gor),
				Note:  "read-mostly mixes shrink the median as readers overlap"},
			{ID: "F9-p99",
				Title: fmt.Sprintf("p99 section latency (ns) vs read fraction (%d goroutines, real runtime)", gor),
				Note:  "the tail is the writers' story: writer-preference keeps it bounded at high read fractions, reader-biased designs let it stretch"},
			{ID: "F9-slow",
				Title: "contention proxy: fraction of sections slower than 2× the median",
				Note:  "≈0 when readers dominate and overlap; mixed fractions queue the most"}},
		func(ai int, info locks.RWInfo, _ *machine.Pool) ([]float64, error) {
			res, ok := workload.RunReadMix(info.New(gor), workload.RWOpts{
				Goroutines: gor, Iters: iters, ReadFraction: fracs[ai], Work: 300,
			})
			if !ok {
				return nil, fmt.Errorf("F9: %s invariant broken at fraction %v", info.Name, fracs[ai])
			}
			o.progressf("  rw %s frac=%.2f: %.0f ops/s\n", info.Name, fracs[ai], res.OpsPerSec)
			return []float64{res.OpsPerSec,
				float64(res.Lat.P50Ns), float64(res.Lat.P99Ns), res.Lat.SlowFrac}, nil
		})
}

// ---------------------------------------------------------------------
// F13 — simulated reader-writer locks
// ---------------------------------------------------------------------

func runF13(o Options) ([]Table, error) {
	p, iters := o.rwSweepSize()
	infos := algosFor(o, simsync.RWLockSet)
	cols := []string{"read fraction"}
	var names []string
	for _, info := range infos {
		names = append(names, info.Name)
		cols = append(cols, info.Name+" cyc/op", info.Name+" txn/op")
	}
	t := Table{
		ID:    "F13",
		Title: fmt.Sprintf("Reader-writer locks on the bus machine at P=%d: cycles and transactions per operation", p),
		Note:  "reader sharing pays off as the read fraction rises; the fair queue variant adds bounded overhead and removes writer starvation",
		Cols:  cols,
	}
	fracs := rwFracs()
	results := make([]simsync.RWResult, len(fracs)*len(infos))
	err := o.forEachCell(true, names, len(results), func(cell int, pool *machine.Pool) error {
		fi, ii := cell/len(infos), cell%len(infos)
		res, rerr := simsync.RunRWIn(pool,
			machine.Config{Procs: p, Topo: topo.Bus, Seed: o.seed()},
			infos[ii],
			simRWOpts(iters, fracs[fi]),
		)
		if rerr != nil {
			return rerr
		}
		o.progressf("  rw %s frac=%.2f: %.0f cyc/op\n", infos[ii].Name, fracs[fi], res.CyclesPerOp)
		results[cell] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for fi, frac := range fracs {
		row := []string{fmt.Sprintf("%.2f", frac)}
		for ii := range infos {
			res := results[fi*len(infos)+ii]
			row = append(row, Fmt(res.CyclesPerOp), Fmt(res.TrafficPerOp))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}
