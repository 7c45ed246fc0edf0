package harness

// Barrier-family sweeps: F7 (bus) and F8 (NUMA), both driven by the
// shared matrix driver over the simulated barrier registry.

import (
	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
)

func barrierSweep(o Options, tp topo.Topology, procsList []int, perProc bool, ms metricSpec) ([]Table, error) {
	return runMatrix(o, true, algosFor(o, simsync.BarrierSet),
		func(bi simsync.BarrierInfo) string { return bi.Name },
		"P", intAxis(procsList), []metricSpec{ms},
		func(ai int, bi simsync.BarrierInfo, pool *machine.Pool) ([]float64, error) {
			p := procsList[ai]
			res, err := simsync.RunBarrierIn(pool,
				machine.Config{Procs: p, Topo: tp, Seed: o.seed()},
				bi, simsync.BarrierOpts{Episodes: o.episodes(), Work: 150},
			)
			if err != nil {
				return nil, err
			}
			o.progressf("  %s %s P=%d: %.0f cyc/ep, %.1f traffic/ep\n",
				tp.Name(), bi.Name, p, res.CyclesPerEpisode, res.TrafficPerEpisode)
			if perProc {
				return []float64{res.TrafficPerEpisode / float64(p)}, nil
			}
			return []float64{res.CyclesPerEpisode}, nil
		})
}

func runF7(o Options) ([]Table, error) {
	return barrierSweep(o, topo.Bus, o.busProcs(), false, metricSpec{
		ID:    "F7",
		Title: "Barrier: cycles per episode vs processors (bus machine)",
		Note:  "on a bus, arrival counting is cheap and central stays competitive; dissemination's O(P log P) transactions make it the worst bus citizen (it exists for NUMA, see F8)",
	})
}

func runF8(o Options) ([]Table, error) {
	return barrierSweep(o, topo.NUMA, o.numaProcs(), true, metricSpec{
		ID:    "F8",
		Title: "Barrier: remote references per episode per processor (NUMA)",
		Note:  "structural counts for local-spin barriers: dissemination exactly ceil(log2 P), push-release trees ~2; central's polls are throttled by its own saturated module (its penalty is episode latency, not ref count)",
	})
}
