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
		{topo.Bus, 32, 200, [4]uint64{614618, 2528, 558272, 29755}},
		{topo.Cluster, 32, 200, [4]uint64{218479, 8380, 151871, 24934}},
		{topo.NUMA, 256, 8, [4]uint64{438461, 484, 414104, 9529}},
		{topo.Cluster, 256, 8, [4]uint64{441626, 2482, 421190, 7541}},
		{topo.Cluster, 1024, 2, [4]uint64{1367794, 2275, 1346397, 6958}},
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
