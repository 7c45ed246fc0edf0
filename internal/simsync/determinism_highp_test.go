package simsync

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/topo"
)

// High-P A/B determinism: the P ∈ {128, 256} ceiling raise (PR 6) must
// hold every family to the same windows-on ≡ windows-off bit-identity
// contract as the canonical P ∈ {2, 8, 32} suite. One representative
// algorithm per family with a quick-mode workload keeps the suite
// affordable at these sizes; the eligibility mask, the engine's heap
// mode, and the per-distance-class window machinery all run their
// multi-word / deep-queue paths here. Topologies whose protocol caps
// the machine size (the bus coherence directory is one 64-bit sharer
// word) are skipped above their ceiling, mirroring the harness's sweep
// behavior.
func TestDeterminismHighP(t *testing.T) {
	type cell struct{ family, algo string }
	cells := []cell{
		{"lock", "tas"},
		{"lock", "qsync"},
		{"barrier", "dissemination"},
		{"rw", "rw-qsync"},
		{"sem", "sem-qsync"},
		{"counter", "ctr-sharded"},
	}
	for _, procs := range []int{128, 256} {
		for _, tp := range toposUnderTest() {
			if mp := tp.MaxProcs(); mp > 0 && procs > mp {
				continue // e.g. bus: sharer bitmap tops out at 64 processors
			}
			for _, c := range cells {
				name := fmt.Sprintf("%s/%s/%s/P%d", tp.Name(), c.family, c.algo, procs)
				if c.family == "lock" {
					info, _ := LockByName(c.algo)
					assertLockIdentical(t, name, machine.Config{Procs: procs, Topo: tp, Seed: 7},
						info, LockOpts{Iters: 3, CS: 25, Think: 50, CheckMutex: true})
					continue
				}
				c := c
				cfg := func(noWindows bool) machine.Config {
					return machine.Config{Procs: procs, Topo: tp, Seed: 7, NoSpinWindows: noWindows}
				}
				assertIdentical(t, name, func(noWindows bool) (machine.Stats, error) {
					switch c.family {
					case "barrier":
						info, _ := BarrierByName(c.algo)
						res, err := RunBarrierIn(nil, cfg(noWindows), info, BarrierOpts{Episodes: 3, Work: 120})
						return res.Stats, err
					case "rw":
						info, _ := RWLockByName(c.algo)
						res, err := RunRWIn(nil, cfg(noWindows), info, RWOpts{Iters: 3, ReadFraction: 0.8, Work: 40, Think: 60})
						return res.Stats, err
					case "sem":
						info, _ := SemaphoreByName(c.algo)
						res, err := RunProducerConsumerIn(nil, cfg(noWindows), info, PCOpts{Items: 64, Capacity: 4, Work: 20})
						return res.Stats, err
					default:
						info, _ := CounterByName(c.algo)
						res, err := RunCounterIn(nil, cfg(noWindows), info, CounterOpts{Incs: 4, Think: 20})
						return res.Stats, err
					}
				})
			}
		}
	}
}

// TestClusterMixedClassStorm pins mixed-period spin windows on the
// cluster machine. A raw test&set storm on a word homed in module
// 0 splits the spinners into the cluster topology's two declared
// traversal classes — the lock cluster's processors probe with the
// short intra-cluster hop, everyone else pays the double-cost
// inter-cluster traversal — and spin windows must batch the
// interleaved storm without disturbing either class's probe
// account. The per-class RMW totals are pinned as literals (a change
// means the simulation itself changed, not just the batching), the
// windows-off twin must match them bit for bit, and the run must
// actually batch (WindowOps > 0): a silently window-ineligible cluster
// storm would leave this green-but-meaningless. The closure twin, whose
// holders issue the held section from their goroutines, must match the
// scripted run too.
func TestClusterMixedClassStorm(t *testing.T) {
	const procs = 16
	info, ok := LockByName("tas")
	if !ok {
		t.Fatal("tas lock missing")
	}
	opts := LockOpts{Iters: 20, CS: 25, Think: 50, CheckMutex: true}
	cfg := machine.Config{Procs: procs, Topo: topo.Cluster, Seed: 7}
	run := func(noWindows bool) LockResult {
		c := cfg
		c.NoSpinWindows = noWindows
		res, err := RunLockIn(nil, c, info, opts)
		if err != nil {
			t.Fatalf("noWindows=%v: %v", noWindows, err)
		}
		return res
	}
	on := run(false)
	off := run(true)
	assertClosureTwin(t, "cluster/tas/P16", cfg, info, opts, on)

	if on.Stats.WindowOps == 0 {
		t.Fatal("cluster storm batched no window ops: per-distance-class windows did not engage")
	}

	// The tas lock's word is the run's first shared allocation, so its
	// home is module 0 and the intra class is exactly cluster 0.
	classOf := func(p int) int {
		if topo.Cluster.Group(p, procs) == topo.Cluster.Group(0, procs) {
			return 0 // intra-cluster hop (home's own cluster)
		}
		return 1 // inter-cluster traversal
	}
	var rmws, refs [2]uint64
	for p, ps := range on.Stats.PerProc {
		rmws[classOf(p)] += ps.RMWs
		refs[classOf(p)] += ps.RemoteRefs
	}
	var offRMWs, offRefs [2]uint64
	for p, ps := range off.Stats.PerProc {
		offRMWs[classOf(p)] += ps.RMWs
		offRefs[classOf(p)] += ps.RemoteRefs
	}
	if rmws != offRMWs || refs != offRefs {
		t.Errorf("per-class probe accounts diverge between windows on/off:\n  on:  rmws=%v refs=%v\n  off: rmws=%v refs=%v",
			rmws, refs, offRMWs, offRefs)
	}
	// Pinned per-class event counts (generated from the windows-off
	// per-event run; see CHANGES.md PR 6). Both classes must appear —
	// a storm with only one class would not give a window's set mixed
	// service times at all.
	wantRMWs := [2]uint64{2046, 3144}
	wantRefs := [2]uint64{1520, 3864}
	if rmws != wantRMWs {
		t.Errorf("per-class RMW counts = %v, want %v", rmws, wantRMWs)
	}
	if refs != wantRefs {
		t.Errorf("per-class remote-reference counts = %v, want %v", refs, wantRefs)
	}

	on.Stats = unwindowed(on.Stats)
	if !reflect.DeepEqual(on, off) {
		t.Errorf("windows changed the mixed-class storm:\n  on:  %+v\n  off: %+v", on, off)
	}
}
