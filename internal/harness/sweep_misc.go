package harness

// Miscellaneous experiments: the hot-spot counter studies (F15's
// combining trade, F16's sharded-vs-central scalability sweep) and the
// T2 space-cost table.

import (
	"fmt"
	"slices"

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
	names := []string{infos[0].Name, infos[1].Name}
	results, err := cells(o, true, len(procsList), names, func(pi, ii int, pool *machine.Pool) (simsync.CounterResult, error) {
		res, err := simsync.RunCounterIn(pool,
			machine.Config{Procs: procsList[pi], Topo: topo.NUMA, Seed: o.seed()},
			infos[ii],
			simsync.CounterOpts{Incs: incs},
		)
		if err == nil {
			o.progressf("  %s P=%d: %.1f cyc/inc\n", infos[ii].Name, procsList[pi], res.CyclesPerInc)
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range procsList {
		fa, comb := results[2*pi].CyclesPerInc, results[2*pi+1].CyclesPerInc
		t.AddRow(Fmt(float64(p)), Fmt(fa), Fmt(comb), fmt.Sprintf("%.2f", fa/comb))
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
	return counterSweep(o, layout{id: "F16",
		title:  "Hot-spot counter at scale on the NUMA machine: sharded vs central (no think time)",
		note:   "striping moves every increment into the caller's own module: cycles and remote references per increment stay flat with P while the central fetch&add climbs; the ratio is the scalability headroom sharding buys",
		tp:     topo.NUMA,
		figure: true,
	})
}

// counterSweep runs every simulated counter on lay's machine across the
// processor axis, clipped to the machine's ceiling: a column of cycles
// per increment for each counter, then one of traffic per increment for
// each. The figure adds the fa/sharded cycles ratio when both counters
// are selected.
func counterSweep(o Options, lay layout) ([]Table, error) {
	incs, procsList := 60, []int{4, 8, 16, 32, 64}
	if o.Quick {
		incs, procsList = 20, []int{4, 16}
	}
	procsList = clipProcs(procsList, lay.tp.MaxProcs())
	infos := algosFor(o, simsync.CounterSet)
	t := Table{ID: lay.id, Title: lay.title, Note: lay.note, Cols: []string{"P"}}
	var names []string
	for _, info := range infos {
		names = append(names, info.Name)
		t.Cols = append(t.Cols, info.Name+" cyc/inc")
	}
	for _, info := range infos {
		t.Cols = append(t.Cols, info.Name+" refs/inc")
	}
	fa, sharded := slices.Index(names, "ctr-fa"), slices.Index(names, "ctr-sharded")
	ratio := lay.figure && fa >= 0 && sharded >= 0
	if ratio {
		t.Cols = append(t.Cols, "fa/sharded")
	}
	results, err := cells(o, true, len(procsList), names, func(pi, ii int, pool *machine.Pool) (simsync.CounterResult, error) {
		res, err := simsync.RunCounterIn(pool,
			machine.Config{Procs: procsList[pi], Topo: lay.tp, Seed: o.seed()},
			infos[ii],
			simsync.CounterOpts{Incs: incs},
		)
		if err == nil {
			o.progressf("  %s %s P=%d: %.1f cyc/inc, %.2f refs/inc\n",
				lay.tp.Name(), infos[ii].Name, procsList[pi], res.CyclesPerInc, res.TrafficPerInc)
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range procsList {
		res := results[pi*len(infos) : (pi+1)*len(infos)]
		row := []string{Fmt(float64(p))}
		for _, r := range res {
			row = append(row, Fmt(r.CyclesPerInc))
		}
		for _, r := range res {
			row = append(row, Fmt(r.TrafficPerInc))
		}
		if ratio {
			row = append(row, fmt.Sprintf("%.2f", res[fa].CyclesPerInc/res[sharded].CyclesPerInc))
		}
		t.AddRow(row...)
	}
	return []Table{t}, nil
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
