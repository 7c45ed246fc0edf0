package simsync

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/topo"
)

// Every barrier must be safe (nobody leaves early) on every model, for a
// spread of processor counts including awkward non-powers-of-two.
func TestAllBarriersSafety(t *testing.T) {
	for _, info := range Barriers() {
		for _, model := range []topo.Topology{topo.Ideal, topo.Bus, topo.NUMA} {
			for _, procs := range []int{1, 2, 3, 5, 8, 13, 16} {
				info, model, procs := info, model, procs
				name := info.Name + "/" + model.Name() + "/" + itoa(procs)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					res, err := RunBarrierIn(nil,
						machine.Config{Procs: procs, Topo: model, Seed: 17},
						info,
						BarrierOpts{Episodes: 12, Work: 30},
					)
					if err != nil {
						t.Fatal(err)
					}
					if res.CyclesPerEpisode <= 0 {
						t.Fatalf("non-positive cycles per episode: %v", res.CyclesPerEpisode)
					}
				})
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Barriers must be reusable: many episodes with zero work stress the
// sense/epoch recycling logic hardest.
func TestBarriersReusableBackToBack(t *testing.T) {
	for _, info := range Barriers() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			_, err := RunBarrierIn(nil,
				machine.Config{Procs: 7, Topo: topo.Bus, Seed: 1},
				info,
				BarrierOpts{Episodes: 50, Work: 0},
			)
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// The central barrier funnels everyone through one counter and one
// sense word: on NUMA its episodes must be clearly slower than the
// local-spin qsync tree (the polls queue at the hot module and inflate
// everyone's latency), and its traffic higher.
func TestCentralBarrierHotSpotVsQSyncTree(t *testing.T) {
	run := func(name string, procs int) BarrierResult {
		info, ok := BarrierByName(name)
		if !ok {
			t.Fatalf("unknown barrier %q", name)
		}
		res, err := RunBarrierIn(nil,
			machine.Config{Procs: procs, Topo: topo.NUMA, Seed: 9},
			info,
			BarrierOpts{Episodes: 10, Work: 40},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	central := run("central", 16)
	qtree := run("qsync-tree", 16)
	if central.CyclesPerEpisode < qtree.CyclesPerEpisode*1.5 {
		t.Fatalf("central episodes (%.0f cyc) not clearly slower than qsync-tree (%.0f)",
			central.CyclesPerEpisode, qtree.CyclesPerEpisode)
	}
	if central.TrafficPerEpisode <= qtree.TrafficPerEpisode {
		t.Fatalf("central traffic (%.1f refs/ep) not above qsync-tree (%.1f)",
			central.TrafficPerEpisode, qtree.TrafficPerEpisode)
	}
}

// Dissemination issues exactly one remote signal per processor per round
// on NUMA: ceil(log2 P) remote stores per processor per episode, plus
// nothing for spinning (all spins local).
func TestDisseminationRemoteStoresPerEpisode(t *testing.T) {
	const procs = 16 // log2 = 4
	info, _ := BarrierByName("dissemination")
	res, err := RunBarrierIn(nil,
		machine.Config{Procs: procs, Topo: topo.NUMA, Seed: 2},
		info,
		BarrierOpts{Episodes: 20, Work: 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	perProcPerEp := res.TrafficPerEpisode / procs
	// 4 rounds -> 4 remote flag stores. Allow a little slop for the
	// first-episode cold effects.
	if perProcPerEp < 3.5 || perProcPerEp > 5.0 {
		t.Fatalf("dissemination made %.2f remote refs/proc/episode, want ~4", perProcPerEp)
	}
}

// With skewed work the barrier time is dominated by the slowest arrival;
// all algorithms should produce comparable episode times (within a small
// factor), or something is broken in release propagation.
func TestBarrierEpisodeTimesComparableUnderSkew(t *testing.T) {
	var minT, maxT float64
	for _, info := range Barriers() {
		res, err := RunBarrierIn(nil,
			machine.Config{Procs: 8, Topo: topo.Bus, Seed: 33},
			info,
			BarrierOpts{Episodes: 10, Work: 2000},
		)
		if err != nil {
			t.Fatal(err)
		}
		v := res.CyclesPerEpisode
		if minT == 0 || v < minT {
			minT = v
		}
		if v > maxT {
			maxT = v
		}
	}
	if maxT > minT*2 {
		t.Fatalf("episode times spread too wide under skew: min %.0f max %.0f", minT, maxT)
	}
}

func TestBarrierByNameUnknown(t *testing.T) {
	if _, ok := BarrierByName("nope"); ok {
		t.Fatal("BarrierByName accepted a bogus name")
	}
}

// Determinism: the same barrier workload twice gives identical cycle counts.
func TestBarrierDeterministicReplay(t *testing.T) {
	run := func() BarrierResult {
		info, _ := BarrierByName("tournament")
		res, err := RunBarrierIn(nil,
			machine.Config{Procs: 10, Topo: topo.NUMA, Seed: 5},
			info,
			BarrierOpts{Episodes: 15, Work: 100},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Stats.RemoteRefs != b.Stats.RemoteRefs {
		t.Fatalf("replay diverged: %v/%v cycles, %v/%v refs",
			a.Cycles, b.Cycles, a.Stats.RemoteRefs, b.Stats.RemoteRefs)
	}
}
