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
	return semSweep(o, layout{id: "F14",
		title:  "Bounded-buffer producer/consumer through counting semaphores (simulated)",
		note:   "the central spin semaphore hammers its counter from every blocked processor; the mechanism's queueing semaphore hands permits off directly with bounded traffic",
		tp:     topo.Bus,
		figure: true,
	})
}

// semSweep runs every simulated semaphore through the bounded-buffer
// workload on lay's machine across the processor axis: one column of
// cycles per item for each semaphore. The figure adds a column of
// remote references per item on the numa machine for each semaphore
// and names each column's machine.
func semSweep(o Options, lay layout) ([]Table, error) {
	items, procsList := 120, []int{2, 4, 8, 16, 32}
	if o.Quick {
		items, procsList = 40, []int{2, 4, 8}
	}
	infos := algosFor(o, simsync.SemaphoreSet)
	models := []topo.Topology{lay.tp}
	if lay.figure {
		models = append(models, topo.NUMA)
	}
	// A column is one (machine, semaphore) pair, charged to the
	// semaphore on the -v clock.
	t := Table{ID: lay.id, Title: lay.title, Note: lay.note, Cols: []string{"P"}}
	var names []string
	for mi, model := range models {
		for _, info := range infos {
			names = append(names, info.Name)
			switch {
			case !lay.figure:
				t.Cols = append(t.Cols, info.Name+" cyc/item")
			case mi == 0:
				t.Cols = append(t.Cols, fmt.Sprintf("%s: %s cyc/item", model.Name(), info.Name))
			default:
				t.Cols = append(t.Cols, fmt.Sprintf("%s: %s refs/item", model.Name(), info.Name))
			}
		}
	}
	results, err := cells(o, true, len(procsList), names, func(pi, c int, pool *machine.Pool) (simsync.PCResult, error) {
		model, info := models[c/len(infos)], infos[c%len(infos)]
		res, err := simsync.RunProducerConsumerIn(pool,
			machine.Config{Procs: procsList[pi], Topo: model, Seed: o.seed()},
			info,
			simsync.PCOpts{Items: items, Capacity: 4, Work: 20},
		)
		if err == nil {
			o.progressf("  %s %s P=%d: %.0f cyc/item %.1f traffic/item\n",
				model.Name(), info.Name, procsList[pi], res.CyclesPerItem, res.TrafficPerItem)
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range procsList {
		row := []string{Fmt(float64(p))}
		for c, res := range results[pi*len(names) : (pi+1)*len(names)] {
			if c < len(infos) {
				row = append(row, Fmt(res.CyclesPerItem))
			} else {
				row = append(row, Fmt(res.TrafficPerItem))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}
