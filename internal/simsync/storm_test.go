package simsync

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/topo"
)

// TestStormHostCounts pins the host-side counters of the five contended
// tas storm shapes the benchmark measures (bus P32, cluster P32, NUMA
// P256, cluster P256, cluster P1024): Events, InlineOps, WindowOps and
// InlineDispatches at seed 1. The goldens and the closure twins scrub
// these counts, since none of them moves a simulated result, so this is
// the test that notices a fast path silently disengaging: a spin
// window, the inline retire path, or in-place script dispatch.
//
// It also pins each cell's allocations when served from a warm
// machine.Pool, the way sweeps run them: on go1.24 the five cells
// allocate 82, 83, 531, 531 and 2,067 objects, about two per processor
// plus a constant. The budget of 2·P+32 catches a window commit, a
// Reset or a spin entry that starts allocating per spinner or per
// event, and leaves headroom for other Go releases.
func TestStormHostCounts(t *testing.T) {
	info := mustLock(t, "tas")
	for _, c := range []struct {
		tp    topo.Topology
		procs int
		iters int
		want  [4]uint64 // Events, InlineOps, WindowOps, InlineDispatches
	}{
		{topo.Bus, 32, 200, [4]uint64{614618, 2528, 558272, 36184}},
		{topo.Cluster, 32, 200, [4]uint64{218479, 8380, 151871, 31271}},
		{topo.NUMA, 256, 8, [4]uint64{438461, 484, 414104, 11828}},
		{topo.Cluster, 256, 8, [4]uint64{441626, 2482, 421190, 9841}},
		{topo.Cluster, 1024, 2, [4]uint64{1367794, 2275, 1346397, 10029}},
	} {
		name := fmt.Sprintf("%s/P%d", c.tp.Name(), c.procs)
		cfg := machine.Config{Procs: c.procs, Topo: c.tp, Seed: 1, SharedWords: 1 << 12, LocalWords: 1 << 8}
		opts := LockOpts{Iters: c.iters, CS: 25, Think: 50, CheckMutex: true}
		pool := new(machine.Pool)
		res, err := RunLockIn(pool, cfg, info, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := res.Stats
		if got := [4]uint64{st.Events, st.InlineOps, st.WindowOps, st.InlineDispatches}; got != c.want {
			t.Errorf("%s: Events/InlineOps/WindowOps/InlineDispatches = %v, want %v", name, got, c.want)
		}
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := RunLockIn(pool, cfg, info, opts); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if budget := 2*c.procs + 32; allocs > float64(budget) {
			t.Errorf("%s: a pooled cell allocates %.0f objects, budget %d", name, allocs, budget)
		}
	}
}

// TestHandoffCounts pins the baton handoffs (Stats.Handoffs) of every
// lock and barrier, each summed over the quick-size cells of the sweeps
// behind F1 and F3 (locks on bus and NUMA at P = 2, 4, 8, 25 iterations)
// and F7 and F8 (barriers on the same machines, 8 episodes), at seed 1.
// A handoff is a goroutine switch in the drive loop, the host cost the
// continuation scripts exist to remove, so this is the test that notices
// a primitive falling back to its goroutine, or a change that removes
// handoffs and should re-pin them.
func TestHandoffCounts(t *testing.T) {
	want := map[string]uint64{
		"tas": 54, "ttas": 55, "tas-bo": 54, "ticket": 54, "ticket-bo": 54,
		"anderson": 53, "gt": 52, "qsync": 54, "tas-deadline": 54,
		"lease": 55, "lease-fence": 55, "qheal": 54,
		"central": 490, "combining": 526, "dissemination": 1174, "tournament": 694,
		"qsync-tree": 662, "reconf": 377,
	}
	got := map[string]uint64{}
	for _, tp := range []topo.Topology{topo.Bus, topo.NUMA} {
		for _, procs := range []int{2, 4, 8} {
			cfg := machine.Config{Procs: procs, Topo: tp, Seed: 1}
			for _, info := range Locks() {
				res, err := RunLockIn(nil, cfg, info, LockOpts{Iters: 25, CS: 25, Think: 50, CheckMutex: true})
				if err != nil {
					t.Fatalf("%s/%s/P%d: %v", tp.Name(), info.Name, procs, err)
				}
				got[info.Name] += res.Stats.Handoffs
			}
			for _, info := range Barriers() {
				res, err := RunBarrierIn(nil, cfg, info, BarrierOpts{Episodes: 8, Work: 150})
				if err != nil {
					t.Fatalf("%s/%s/P%d: %v", tp.Name(), info.Name, procs, err)
				}
				got[info.Name] += res.Stats.Handoffs
			}
		}
	}
	for name, n := range got {
		if n != want[name] {
			t.Errorf("%s: %d handoffs, want %d", name, n, want[name])
		}
	}
}
