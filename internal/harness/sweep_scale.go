package harness

// SC1/SC2 — the extreme-scale sweep (PR 6): one contended tas storm
// per (P, topology) cell with the processor count on the axis and the
// registered topologies as columns, up to the P ∈ {256, 1024} deep
// points where pending probes reach tens of thousands of cycles ahead
// and the window eligibility mask spans multiple words. The P axis is
// shared across columns, so topologies with a protocol ceiling (the
// bus machine's 64-sharer coherence bitmask) skip their over-ceiling
// cells rather than erroring or clipping the axis — the sweep
// completes across the whole registry and the skipped cells render as
// "-".
//
// SC1 is simulated and deterministic (cycles per acquisition). SC2 is
// host throughput (simulated memory operations per host second, the
// number that bounds sweep wall-clock): it depends on the machine that
// ran it, so cells run sequentially to keep the timing honest, and
// recorded copies (EXPERIMENTS.md) name their host.

import (
	"time"

	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
)

// scaleProcs is the scaling sweep's processor axis. Quick mode stays
// small but deliberately crosses the bus ceiling so the skip path is
// exercised by the quick-mode experiment tests.
func (o Options) scaleProcs() []int {
	if o.Quick {
		return []int{32, 128}
	}
	return []int{32, 64, 256, 1024}
}

// scaleIters keeps cell cost roughly flat as P grows: total simulated
// events scale with P × iters × storm size, and the storm itself grows
// with P, so a fixed small iteration count is what keeps the P=1024
// cells affordable.
func (o Options) scaleIters() int {
	if o.Quick {
		return 2
	}
	return 6
}

func runScalingSweep(o Options) ([]Table, error) {
	topos := o.axisTopos()
	procs := o.scaleProcs()
	info, ok := simsync.LockByName("tas")
	if !ok {
		panic("harness: tas lock missing from registry")
	}
	return runMatrix(o, false, topos,
		func(t topo.Topology) string { return t.Name() },
		"P", intAxis(procs),
		[]metricSpec{
			{ID: "SC1", Title: "Scaling law: cycles per acquisition vs processors (contended tas storm, per topology)",
				Note: "simulated and deterministic; over-ceiling cells (bus above 64 processors) are skipped, not errors"},
			{ID: "SC2", Title: "Scaling law: host simops/s vs processors (contended tas storm, per topology)",
				Note: "host-dependent throughput — regenerate on your machine before comparing; spin windows batch the storms on every topology"},
		},
		func(ai int, tp topo.Topology, pool *machine.Pool) ([]float64, error) {
			p := procs[ai]
			if mp := tp.MaxProcs(); mp > 0 && p > mp {
				o.progressf("  %s P=%d: skipped (topology ceiling %d)\n", tp.Name(), p, mp)
				return nil, errSkipCell
			}
			start := time.Now()
			res, err := simsync.RunLockIn(pool,
				machine.Config{Procs: p, Topo: tp, Seed: o.seed()},
				info, simLockOpts(o.scaleIters()),
			)
			if err != nil {
				return nil, err
			}
			el := time.Since(start).Seconds()
			st := res.Stats
			simops := float64(st.Loads+st.Stores+st.RMWs) / el
			o.progressf("  %s tas P=%d: %.0f cyc/acq, %.2fM simops/s\n",
				tp.Name(), p, res.CyclesPerAcq, simops/1e6)
			return []float64{res.CyclesPerAcq, simops}, nil
		})
}
