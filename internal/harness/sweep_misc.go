package harness

// Miscellaneous experiments: the hot-spot counter studies (F15's
// combining trade, F16's sharded-vs-central scalability sweep) and the
// T2 space-cost table.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
)

// ---------------------------------------------------------------------
// F15 — hot-spot counter: software combining
// ---------------------------------------------------------------------

func runF15(o Options) ([]Table, error) {
	incs := 60
	procsList := []int{1, 4, 8, 16, 32, 64}
	if o.Quick {
		incs = 20
		procsList = []int{1, 4, 8}
	}
	// F15 is the Ultracomputer-era pairwise-combining story; it compares
	// exactly these two algorithms (F16 widens the field).
	infos, err := simsync.CounterSet.Select([]string{"ctr-fa", "ctr-combine"})
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:    "F15",
		Title: "Hot-spot counter on the NUMA machine: cycles per increment (no think time)",
		Note:  "a single fetch&add word saturates its home module as P grows; pairwise software combining halves the root pressure and wins past the crossover, at the price of idle-case latency (the Ultracomputer trade)",
		Cols:  []string{"P", "fetch&add", "combining", "fa/combining"},
	}
	var names []string
	for _, info := range infos {
		names = append(names, info.Name)
	}
	results := make([]simsync.CounterResult, len(procsList)*len(infos))
	err = o.forEachCell(true, names, len(results), func(cell int, pool *machine.Pool) error {
		pi, ii := cell/len(infos), cell%len(infos)
		res, rerr := simsync.RunCounterIn(pool,
			machine.Config{Procs: procsList[pi], Topo: topo.NUMA, Seed: o.seed()},
			infos[ii],
			simsync.CounterOpts{Incs: incs},
		)
		if rerr != nil {
			return rerr
		}
		o.progressf("  %s P=%d: %.1f cyc/inc\n", infos[ii].Name, procsList[pi], res.CyclesPerInc)
		results[cell] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range procsList {
		row := []string{Fmt(float64(p))}
		var vals []float64
		for ii := range infos {
			res := results[pi*len(infos)+ii]
			row = append(row, Fmt(res.CyclesPerInc))
			vals = append(vals, res.CyclesPerInc)
		}
		row = append(row, fmt.Sprintf("%.2f", vals[0]/vals[1]))
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

// ---------------------------------------------------------------------
// F16 — hot-spot counter at scale: sharded vs central
// ---------------------------------------------------------------------

// runF16 is the scalability sweep the sharded layer exists for: every
// registered counter discipline on the NUMA machine under maximum
// write pressure, with the headline ratio between the central
// fetch&add hot spot and the per-processor-striped counter. The
// striped counter's increments are local fetch&adds, so its cost stays
// flat while the central word's home module queues ever deeper.
func runF16(o Options) ([]Table, error) {
	incs, procsList := o.counterSweepSize()
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
	haveRatio := containsName(infos, "ctr-fa") && containsName(infos, "ctr-sharded")
	if haveRatio {
		cols = append(cols, "fa/sharded")
	}
	t := Table{
		ID:    "F16",
		Title: "Hot-spot counter at scale on the NUMA machine: sharded vs central (no think time)",
		Note:  "striping moves every increment into the caller's own module: cycles and remote references per increment stay flat with P while the central fetch&add climbs; the ratio is the scalability headroom sharding buys",
		Cols:  cols,
	}
	results := make([]simsync.CounterResult, len(procsList)*len(infos))
	err := o.forEachCell(true, names, len(results), func(cell int, pool *machine.Pool) error {
		pi, ii := cell/len(infos), cell%len(infos)
		res, rerr := simsync.RunCounterIn(pool,
			machine.Config{Procs: procsList[pi], Topo: topo.NUMA, Seed: o.seed()},
			infos[ii],
			simsync.CounterOpts{Incs: incs},
		)
		if rerr != nil {
			return rerr
		}
		o.progressf("  %s P=%d: %.1f cyc/inc, %.2f refs/inc\n",
			infos[ii].Name, procsList[pi], res.CyclesPerInc, res.TrafficPerInc)
		results[cell] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range procsList {
		row := []string{Fmt(float64(p))}
		cycByName := make(map[string]float64, len(infos))
		var refs []string
		for ii, info := range infos {
			res := results[pi*len(infos)+ii]
			cycByName[info.Name] = res.CyclesPerInc
			row = append(row, Fmt(res.CyclesPerInc))
			refs = append(refs, Fmt(res.TrafficPerInc))
		}
		row = append(row, refs...)
		if haveRatio {
			row = append(row, fmt.Sprintf("%.2f", cycByName["ctr-fa"]/cycByName["ctr-sharded"]))
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}

func containsName(infos []simsync.CounterInfo, name string) bool {
	for _, i := range infos {
		if i.Name == name {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// T2 — space costs
// ---------------------------------------------------------------------

func runT2(o Options) ([]Table, error) {
	lockB, waiterB, rwB, rwWaiterB := core.Footprint()
	t := Table{
		ID:    "T2",
		Title: "Space cost per primitive (simulated words are the paper's metric; bytes are this implementation)",
		Note:  "the mechanism: one word per lock plus one record per waiter; sharded variants trade S cache lines of space for contention-free stripes",
		Cols:  []string{"primitive", "sim words (lock)", "sim words (per waiter)", "real bytes (lock)", "real bytes (per waiter)"},
	}
	t.AddRow("tas/ttas/tas-bo", "1", "0", "4", "0")
	t.AddRow("ticket", "2", "0", "8", "0")
	t.AddRow("anderson", "P+1", "0", "64*P+8", "0")
	t.AddRow("qsync mutex", "1", "2", Fmt(float64(lockB)), Fmt(float64(waiterB)))
	t.AddRow("qsync rwmutex", "3", "2", Fmt(float64(rwB)), Fmt(float64(rwWaiterB)))
	t.AddRow("sharded counter", "P", "0", "64*S+32", "0")
	// Each shard is padded to a whole cache line; the header is a slice
	// plus the stripe mask.
	t.AddRow("sharded rwmutex", "3*S", "2", "64*S+32", Fmt(float64(rwWaiterB)))
	return []Table{t}, nil
}
