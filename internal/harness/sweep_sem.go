package harness

// Semaphore-family sweeps: F10 (real-runtime bounded-buffer pipeline)
// and F14 (simulated semaphores through the same workload shape).

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------
// F10 — pipeline throughput (real runtime)
// ---------------------------------------------------------------------

func runF10(o Options) ([]Table, error) {
	items := 200000
	if o.Quick {
		items = 10000
	}
	t := Table{
		ID:    "F10",
		Title: "Bounded-buffer pipeline throughput (semaphore + mutex, real runtime)",
		Note:  "throughput rises with workers until buffer contention dominates. slow = fraction of push/pop ops beyond 2× the median latency (contention proxy)",
		Cols: []string{"producers=consumers",
			"items/s (spin-park)", "park p50/p99 ns", "park slow",
			"items/s (spin)", "spin p50/p99 ns", "spin slow", "validated"},
	}
	pctl := func(l workload.LatSummary) string {
		return fmt.Sprintf("%s/%s", Fmt(float64(l.P50Ns)), Fmt(float64(l.P99Ns)))
	}
	for _, w := range []int{1, 2, 4, 8} {
		park := workload.RunPipeline(workload.PipelineOpts{
			Producers: w, Consumers: w, Items: items, Capacity: 64, Mode: core.SpinPark,
		})
		spin := workload.RunPipeline(workload.PipelineOpts{
			Producers: w, Consumers: w, Items: items, Capacity: 64, Mode: core.Spin,
		})
		okStr := "yes"
		if !park.SumValidated || !spin.SumValidated {
			okStr = "NO"
		}
		t.AddRow(Fmt(float64(w)),
			Fmt(park.ItemsPerSec), pctl(park.Lat), Fmt(park.Lat.SlowFrac),
			Fmt(spin.ItemsPerSec), pctl(spin.Lat), Fmt(spin.Lat.SlowFrac), okStr)
	}
	return []Table{t}, nil
}

// ---------------------------------------------------------------------
// F14 — simulated semaphores (bounded buffer)
// ---------------------------------------------------------------------

func runF14(o Options) ([]Table, error) {
	items, procsList := o.semSweepSize()
	infos := algosFor(o, simsync.SemaphoreSet)
	models := []topo.Topology{topo.Bus, topo.NUMA}
	cols := []string{"P"}
	var names []string
	for _, info := range infos {
		names = append(names, info.Name)
	}
	for _, model := range models {
		unit := "cyc/item"
		if model == topo.NUMA {
			unit = "refs/item"
		}
		for _, name := range names {
			cols = append(cols, fmt.Sprintf("%s: %s %s", model, name, unit))
		}
	}
	t := Table{
		ID:    "F14",
		Title: "Bounded-buffer producer/consumer through counting semaphores (simulated)",
		Note:  "the central spin semaphore hammers its counter from every blocked processor; the mechanism's queueing semaphore hands permits off directly with bounded traffic",
		Cols:  cols,
	}
	perRow := len(models) * len(infos)
	results := make([]simsync.PCResult, len(procsList)*perRow)
	err := o.forEachCell(true, names, len(results), func(cell int, pool *machine.Pool) error {
		pi, rest := cell/perRow, cell%perRow
		model, info := models[rest/len(infos)], infos[rest%len(infos)]
		res, rerr := simsync.RunProducerConsumerIn(pool,
			machine.Config{Procs: procsList[pi], Topo: model, Seed: o.seed()},
			info,
			simPCOpts(items),
		)
		if rerr != nil {
			return rerr
		}
		o.progressf("  %s %s P=%d: %.0f cyc/item %.1f traffic/item\n",
			model.Name(), info.Name, procsList[pi], res.CyclesPerItem, res.TrafficPerItem)
		results[cell] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range procsList {
		row := []string{Fmt(float64(p))}
		for mi, model := range models {
			for ii := range infos {
				res := results[pi*perRow+mi*len(infos)+ii]
				if model == topo.Bus {
					row = append(row, Fmt(res.CyclesPerItem))
				} else {
					row = append(row, Fmt(res.TrafficPerItem))
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}
