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
	p, _ := o.rwSweepSize()
	return rwSweep(o, layout{id: "F13",
		title:  fmt.Sprintf("Reader-writer locks on the bus machine at P=%d: cycles and transactions per operation", p),
		note:   "reader sharing pays off as the read fraction rises; the fair queue variant adds bounded overhead and removes writer starvation",
		tp:     topo.Bus,
		figure: true,
	})
}

// rwSweep runs every simulated reader-writer lock on lay's machine
// across the read-fraction axis: one column of cycles per operation for
// each lock, which the figure pairs with the lock's transactions per
// operation.
func rwSweep(o Options, lay layout) ([]Table, error) {
	p, iters := o.rwSweepSize()
	infos := algosFor(o, simsync.RWLockSet)
	t := Table{ID: lay.id, Title: lay.title, Note: lay.note, Cols: []string{"read fraction"}}
	var names []string
	for _, info := range infos {
		names = append(names, info.Name)
		t.Cols = append(t.Cols, info.Name+" cyc/op")
		if lay.figure {
			t.Cols = append(t.Cols, info.Name+" txn/op")
		}
	}
	fracs := []float64{0, 0.5, 0.9, 1}
	results, err := cells(o, true, len(fracs), names, func(fi, ii int, pool *machine.Pool) (simsync.RWResult, error) {
		res, err := simsync.RunRWIn(pool,
			machine.Config{Procs: p, Topo: lay.tp, Seed: o.seed()},
			infos[ii],
			simsync.RWOpts{Iters: iters, ReadFraction: fracs[fi], Work: 40, Think: 60},
		)
		if err == nil {
			o.progressf("  %s rw %s frac=%.2f: %.0f cyc/op\n", lay.tp.Name(), infos[ii].Name, fracs[fi], res.CyclesPerOp)
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}
	for fi, frac := range fracs {
		row := []string{fmt.Sprintf("%.2f", frac)}
		for _, res := range results[fi*len(infos) : (fi+1)*len(infos)] {
			row = append(row, Fmt(res.CyclesPerOp))
			if lay.figure {
				row = append(row, Fmt(res.TrafficPerOp))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}
