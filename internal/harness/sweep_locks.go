package harness

// Lock-family sweeps: the simulated sweeps behind T1, F1/F2/T4, F3/F4,
// F5, F6, T3, A1 and the real-runtime sweeps behind F11 and F12. All
// algorithm selection resolves through the registries in
// internal/simsync and internal/locks.

import (
	"fmt"
	"runtime"

	"repro/internal/locks"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/simsync"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// T1 — uncontended latency
// ---------------------------------------------------------------------

func runT1(o Options) ([]Table, error) {
	t := Table{
		ID:    "T1",
		Title: "Single-processor acquire+release latency, no contention",
		Note:  "tas cheapest; the queueing mechanism pays a few extra cycles for its scalability",
		Cols:  []string{"lock", "bus cycles", "bus txns", "numa cycles", "numa refs"},
	}
	infos := algosFor(o, simsync.LockSet)
	names := make([]string, len(infos))
	for i, li := range infos {
		names[i] = li.Name
	}
	// One cell per lock, measuring both machines and filling its own
	// row, so the table keeps registry order.
	rows, err := cells(o, true, 1, names, func(_, c int, pool *machine.Pool) ([]string, error) {
		row := []string{names[c]}
		for _, tp := range []topo.Topology{topo.Bus, topo.NUMA} {
			cyc, traf, err := simsync.UncontendedLockCostIn(pool, tp, infos[c])
			if err != nil {
				return nil, err
			}
			row = append(row, Fmt(float64(cyc)), Fmt(float64(traf)))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return []Table{t}, nil
}

// ---------------------------------------------------------------------
// F1 + F2 + T4 — bus machine lock sweep
// ---------------------------------------------------------------------

func lockSweep(o Options, tp topo.Topology, procsList []int, metrics []metricSpec) (tables []Table, perLockTraffic map[string][]float64, err error) {
	infos := algosFor(o, simsync.LockSet)
	// Pre-size the traffic series so concurrent cells write disjoint
	// indexed slots instead of appending (the map itself is read-only
	// while the matrix runs).
	perLockTraffic = make(map[string][]float64, len(infos))
	for _, li := range infos {
		perLockTraffic[li.Name] = make([]float64, len(procsList))
	}
	tables, err = runMatrix(o, true, infos, func(li simsync.LockInfo) string { return li.Name },
		"P", intAxis(procsList), metrics,
		func(ai int, li simsync.LockInfo, pool *machine.Pool) ([]float64, error) {
			p := procsList[ai]
			res, rerr := simsync.RunLockIn(pool,
				machine.Config{Procs: p, Topo: tp, Seed: o.seed()},
				li, simLockOpts(o.lockIters()),
			)
			if rerr != nil {
				return nil, rerr
			}
			o.progressf("  %s %s P=%d: %.0f cyc/acq, %.2f traffic/acq\n",
				tp.Name(), li.Name, p, res.CyclesPerAcq, res.TrafficPerAcq)
			perLockTraffic[li.Name][ai] = res.TrafficPerAcq
			return []float64{res.CyclesPerAcq, res.TrafficPerAcq}, nil
		})
	return tables, perLockTraffic, err
}

func runBusLockSweep(o Options) ([]Table, error) {
	procs := o.busProcs()
	tables, perLock, err := lockSweep(o, topo.Bus, procs, []metricSpec{
		{ID: "F1", Title: "Cycles per critical section vs processors (bus machine)",
			Note: "tas superlinear; ttas better; backoff/ticket flatten; anderson & qsync near-flat"},
		{ID: "F2", Title: "Bus transactions per acquisition vs processors",
			Note: "tas ~O(P); ttas O(P) release burst; qsync O(1)"},
	})
	if err != nil {
		return nil, err
	}

	t4 := Table{
		ID:    "T4",
		Title: "Fitted scaling exponent k of traffic ~ P^k (bus)",
		Note:  "k ≈ 1 for tas/ttas, k ≈ 0 for the mechanism",
		Cols:  []string{"lock", "exponent k", "R^2"},
	}
	// Fit only the contended regime (P >= 2): the uncontended point is a
	// different operating mode and the era's log-log slopes exclude it.
	var xs []float64
	var keep []int
	for i, p := range procs {
		if p >= 2 {
			xs = append(xs, float64(p))
			keep = append(keep, i)
		}
	}
	for _, li := range algosFor(o, simsync.LockSet) {
		var ys []float64
		for _, i := range keep {
			ys = append(ys, perLock[li.Name][i])
		}
		k, r2 := stats.PowerLawExponent(xs, ys)
		t4.AddRow(li.Name, fmt.Sprintf("%.3f", k), fmt.Sprintf("%.3f", r2))
	}
	return append(tables, t4), nil
}

// ---------------------------------------------------------------------
// F3 + F4 — NUMA machine lock sweep
// ---------------------------------------------------------------------

func runNUMALockSweep(o Options) ([]Table, error) {
	tables, _, err := lockSweep(o, topo.NUMA, o.numaProcs(), []metricSpec{
		{ID: "F3", Title: "Cycles per critical section vs processors (NUMA machine)",
			Note: "remote-spin algorithms degrade with network hot-spotting; qsync flat"},
		{ID: "F4", Title: "Remote references per acquisition vs processors (NUMA)",
			Note: "qsync constant (~4); ticket/anderson/tas grow with P"},
	})
	return tables, err
}

// ---------------------------------------------------------------------
// F5 — backoff sensitivity ablation
// ---------------------------------------------------------------------

func runF5(o Options) ([]Table, error) {
	const procs = 16
	p := procs
	if o.Quick {
		p = 8
	}
	t := Table{
		ID:    "F5",
		Title: fmt.Sprintf("Backoff tuning sensitivity at P=%d (bus): cycles per acquisition", p),
		Note:  "backoff needs tuning per workload; the mechanism is parameter-free and matches the best tuning",
		Cols:  []string{"lock (base/cap)", "cycles/acq", "txns/acq"},
	}
	// One cell per row: the twelve tuned tas-bo locks, then qsync. Row
	// labels carry spaces, so the footer names each row's lock instead.
	var infos []simsync.LockInfo
	var names []string
	for _, base := range []sim.Time{4, 16, 64, 256} {
		for _, cap := range []sim.Time{256, 2048, 16384} {
			base, cap := base, cap
			infos = append(infos, simsync.LockInfo{
				Name: fmt.Sprintf("tas-bo %d/%d", base, cap),
				Make: func(m *machine.Machine) simsync.Lock {
					return simsync.NewTASBackoffParams(m, simsync.BackoffParams{Base: base, Cap: cap})
				},
			})
			names = append(names, "tas-bo")
		}
	}
	qs, _ := simsync.LockByName("qsync")
	names = append(names, qs.Name)
	qs.Name += " (no tuning)"
	infos = append(infos, qs)
	rows, err := cells(o, true, 1, names, func(_, c int, pool *machine.Pool) ([]string, error) {
		res, err := simsync.RunLockIn(pool,
			machine.Config{Procs: p, Topo: topo.Bus, Seed: o.seed()},
			infos[c], simLockOpts(o.lockIters()),
		)
		return []string{infos[c].Name, Fmt(res.CyclesPerAcq), Fmt(res.TrafficPerAcq)}, err
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return []Table{t}, nil
}

// ---------------------------------------------------------------------
// F6 — critical-section length crossover
// ---------------------------------------------------------------------

func runF6(o Options) ([]Table, error) {
	p := 16
	if o.Quick {
		p = 8
	}
	lengths := []sim.Time{0, 100, 400, 1600}
	axis := make([]string, len(lengths))
	for i, cs := range lengths {
		axis[i] = Fmt(float64(cs))
	}
	return runMatrix(o, true, algosFor(o, simsync.LockSet),
		func(li simsync.LockInfo) string { return li.Name },
		"CS cycles", axis,
		[]metricSpec{{ID: "F6",
			Title: fmt.Sprintf("Cycles per critical section vs CS length at P=%d (bus)", p),
			Note:  "lock overhead differences wash out as the critical section grows; columns converge"}},
		func(ai int, li simsync.LockInfo, pool *machine.Pool) ([]float64, error) {
			cs := lengths[ai]
			opts := simsync.LockOpts{Iters: o.lockIters(), CS: cs, Think: 2 * cs, CheckMutex: true}
			res, err := simsync.RunLockIn(pool,
				machine.Config{Procs: p, Topo: topo.Bus, Seed: o.seed()},
				li, opts,
			)
			if err != nil {
				return nil, err
			}
			return []float64{res.CyclesPerAcq}, nil
		})
}

// ---------------------------------------------------------------------
// F11 — real-runtime lock sweep
// ---------------------------------------------------------------------

func runF11(o Options) ([]Table, error) {
	iters := 20000
	if o.Quick {
		iters = 1000
	}
	maxG := 2 * runtime.GOMAXPROCS(0)
	var gs []int
	for g := 1; g <= maxG; g *= 2 {
		gs = append(gs, g)
	}
	// Real runtime: cells time the host and must not run concurrently;
	// the watchdog turns a wedged lock into a "!timeout" cell. The
	// latency tables come from the same cells as the throughput table —
	// one measurement, four views.
	return runMatrixTimeout(o, realCellTimeout, algosFor(o, locks.Registry),
		func(li locks.Info) string { return li.Name },
		"goroutines", intAxis(gs),
		[]metricSpec{{ID: "F11",
			Title: "ns per acquire/release pair vs goroutines (real runtime)",
			Note:  "same qualitative ordering as F1; absolute values are Go-runtime specific"},
			{ID: "F11-p50",
				Title: "p50 acquire→release latency (ns) vs goroutines (real runtime)",
				Note:  "the median pair stays near the uncontended cost until the queue builds"},
			{ID: "F11-p99",
				Title: "p99 acquire→release latency (ns) vs goroutines (real runtime)",
				Note:  "unfair locks grow a long tail under contention; queue locks keep p99 near p50 × queue depth"},
			{ID: "F11-slow",
				Title: "contention proxy: fraction of acquire→release pairs slower than 2× the median",
				Note:  "≈0 uncontended; rises with goroutines as ops start queueing"}},
		func(ai int, li locks.Info, _ *machine.Pool) ([]float64, error) {
			g := gs[ai]
			res, ok := workload.RunCriticalSections(li.New(g), workload.CSOpts{
				Goroutines: g, Iters: iters / g, CSWork: 20, ThinkWork: 40,
			})
			if !ok {
				return nil, fmt.Errorf("F11: %s violated exclusion", li.Name)
			}
			return []float64{res.NsPerOp,
				float64(res.Lat.P50Ns), float64(res.Lat.P99Ns), res.Lat.SlowFrac}, nil
		})
}

// ---------------------------------------------------------------------
// F12 — spin vs park under oversubscription
// ---------------------------------------------------------------------

func runF12(o Options) ([]Table, error) {
	iters := 4000
	if o.Quick {
		iters = 400
	}
	n := runtime.GOMAXPROCS(0)
	t := Table{
		ID:    "F12",
		Title: "Mechanism with spin vs spin-park waiters under oversubscription",
		Note:  "pure spin collapses past 1 waiter per CPU; parking degrades gracefully — why futex-style waiting superseded these primitives. slow = fraction of pairs beyond 2× the median (contention proxy)",
		Cols: []string{"goroutines", "spin ns/op", "spin p50/p99 ns", "spin slow",
			"spin-park ns/op", "park p50/p99 ns", "park slow", "spin/park"},
	}
	pctl := func(l workload.LatSummary) string {
		return fmt.Sprintf("%s/%s", Fmt(float64(l.P50Ns)), Fmt(float64(l.P99Ns)))
	}
	for _, mult := range []int{1, 2, 4} {
		g := n * mult
		spinInfo, _ := locks.ByName("qsync")
		parkInfo, _ := locks.ByName("qsync-park")
		spinRes, ok1 := workload.RunCriticalSections(spinInfo.New(g), workload.CSOpts{
			Goroutines: g, Iters: iters / mult, CSWork: 30,
		})
		parkRes, ok2 := workload.RunCriticalSections(parkInfo.New(g), workload.CSOpts{
			Goroutines: g, Iters: iters / mult, CSWork: 30,
		})
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("F12: exclusion violated")
		}
		t.AddRow(Fmt(float64(g)),
			Fmt(spinRes.NsPerOp), pctl(spinRes.Lat), Fmt(spinRes.Lat.SlowFrac),
			Fmt(parkRes.NsPerOp), pctl(parkRes.Lat), Fmt(parkRes.Lat.SlowFrac),
			fmt.Sprintf("%.2f", spinRes.NsPerOp/parkRes.NsPerOp))
	}
	return []Table{t}, nil
}

// ---------------------------------------------------------------------
// T3 — fairness
// ---------------------------------------------------------------------

func runT3(o Options) ([]Table, error) {
	p := 16
	duration := sim.Time(150000)
	if o.Quick {
		p = 8
		duration = 40000
	}
	t := Table{
		ID:    "T3",
		Title: fmt.Sprintf("Fairness over a fixed interval at P=%d (bus): per-processor acquisition spread and FIFO inversions", p),
		Note:  "queue locks: spread ~1, zero inversions; randomized backoff: wide spread, many inversions",
		Cols:  []string{"lock", "total acq", "min/proc", "max/proc", "max/min", "inversions/acq"},
	}
	infos := algosFor(o, simsync.LockSet)
	names := make([]string, len(infos))
	for i, li := range infos {
		names[i] = li.Name
	}
	results, err := cells(o, true, 1, names, func(_, c int, pool *machine.Pool) (simsync.LockResult, error) {
		return simsync.RunLockIn(pool,
			machine.Config{Procs: p, Topo: topo.Bus, Seed: o.seed()},
			infos[c], simsync.LockOpts{Duration: duration, CS: 25, Think: 50, CheckMutex: true, RecordOrder: true},
		)
	})
	if err != nil {
		return nil, err
	}
	for ci, li := range infos {
		res := results[ci]
		var min, max uint64 = ^uint64(0), 0
		for _, c := range res.AcqPerProc {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		ratio := "inf"
		if min > 0 {
			ratio = fmt.Sprintf("%.2f", float64(max)/float64(min))
		}
		t.AddRow(li.Name, Fmt(float64(res.Acquisitions)), Fmt(float64(min)), Fmt(float64(max)),
			ratio, fmt.Sprintf("%.3f", float64(res.FIFOInversions)/float64(res.Acquisitions)))
	}
	return []Table{t}, nil
}

// ---------------------------------------------------------------------
// A1 — machine timing-parameter ablation
// ---------------------------------------------------------------------

// runA1 sweeps the two timing knobs that define the machine models and
// shows that the mechanism's advantage is structural, not an artifact
// of one parameter choice: qsync's traffic per acquisition stays
// constant while tas's cost scales with the interconnect penalty.
func runA1(o Options) ([]Table, error) {
	p := 16
	if o.Quick {
		p = 8
	}
	t := Table{
		ID:    "A1",
		Title: fmt.Sprintf("Timing-parameter sensitivity at P=%d: cycles per acquisition as interconnect latencies vary", p),
		Note:  "the tas:qsync gap widens on both machines as transactions get dearer (remote polls queue at the saturated home module); qsync's own traffic count never moves",
		Cols:  []string{"machine", "parameter", "tas cyc/acq", "qsync cyc/acq", "tas/qsync", "qsync traffic/acq"},
	}
	tas, _ := simsync.LockByName("tas")
	qs, _ := simsync.LockByName("qsync")

	type point struct {
		machine string
		param   string
		cfg     machine.Config
	}
	var points []point
	for _, busLat := range []sim.Time{5, 20, 80} {
		points = append(points, point{"bus", fmt.Sprintf("bus latency %d", busLat),
			machine.Config{Procs: p, Topo: topo.Bus, BusLatency: busLat, Seed: o.seed()}})
	}
	for _, remote := range []sim.Time{4, 12, 48} {
		points = append(points, point{"numa", fmt.Sprintf("remote latency %d", remote),
			machine.Config{Procs: p, Topo: topo.NUMA, RemoteMem: remote, Seed: o.seed()}})
	}
	locksUnder := []simsync.LockInfo{tas, qs}
	results, err := cells(o, true, len(points), []string{tas.Name, qs.Name}, func(pi, li int, pool *machine.Pool) (simsync.LockResult, error) {
		return simsync.RunLockIn(pool, points[pi].cfg, locksUnder[li], simLockOpts(o.lockIters()))
	})
	if err != nil {
		return nil, err
	}
	for pi, pt := range points {
		rt, rq := results[pi*len(locksUnder)], results[pi*len(locksUnder)+1]
		t.AddRow(pt.machine, pt.param,
			Fmt(rt.CyclesPerAcq), Fmt(rq.CyclesPerAcq),
			fmt.Sprintf("%.2f", rt.CyclesPerAcq/rq.CyclesPerAcq), Fmt(rq.TrafficPerAcq))
	}
	return []Table{t}, nil
}
