package simsync

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Every lock must provide mutual exclusion and lose no updates on every
// machine model, under contention with randomized think and hold times.
func TestAllLocksMutualExclusion(t *testing.T) {
	for _, info := range Locks() {
		for _, model := range []topo.Topology{Ideal, busModel, numaModel} {
			info, model := info, model
			t.Run(info.Name+"/"+model.Name(), func(t *testing.T) {
				t.Parallel()
				res, err := RunLockIn(nil,
					machine.Config{Procs: 8, Topo: model, Seed: 7},
					info,
					LockOpts{Iters: 40, CS: 10, Think: 25, CheckMutex: true},
				)
				if err != nil {
					t.Fatal(err)
				}
				if res.Acquisitions != 8*40 {
					t.Fatalf("acquisitions = %d, want %d", res.Acquisitions, 8*40)
				}
				if res.CyclesPerAcq <= 0 {
					t.Fatalf("non-positive cycles per acquisition: %v", res.CyclesPerAcq)
				}
			})
		}
	}
}

// Aliases so the table above reads naturally.
var (
	Ideal     = topo.Ideal
	busModel  = topo.Bus
	numaModel = topo.NUMA
)

func TestAllLocksSingleProc(t *testing.T) {
	for _, info := range Locks() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			res, err := RunLockIn(nil,
				machine.Config{Procs: 1, Topo: topo.Bus},
				info,
				LockOpts{Iters: 10, CheckMutex: true},
			)
			if err != nil {
				t.Fatal(err)
			}
			if res.Acquisitions != 10 {
				t.Fatalf("acquisitions = %d, want 10", res.Acquisitions)
			}
		})
	}
}

// FIFO locks must grant strictly in arrival order.
func TestFIFOLocksHaveNoInversions(t *testing.T) {
	for _, info := range Locks() {
		if !info.FIFO {
			continue
		}
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			res, err := RunLockIn(nil,
				machine.Config{Procs: 12, Topo: topo.Bus, Seed: 3},
				info,
				LockOpts{Iters: 30, CS: 8, Think: 40, CheckMutex: true, RecordOrder: true},
			)
			if err != nil {
				t.Fatal(err)
			}
			if res.FIFOInversions != 0 {
				t.Fatalf("FIFO lock %s granted %d requests out of order", info.Name, res.FIFOInversions)
			}
		})
	}
}

// The unfair locks should show inversions under heavy contention —
// otherwise our inversion counter is broken. Note: pure tas in this
// model is arbitrated by the FIFO bus queue and therefore rotates almost
// fairly; the era-documented unfairness appears once randomized backoff
// delays decide who retries nearest a release, so tas-bo is the
// canonical unfair lock here (see DESIGN.md, T3).
func TestUnfairLocksShowInversions(t *testing.T) {
	res, err := RunLockIn(nil,
		machine.Config{Procs: 12, Topo: topo.Bus, Seed: 3},
		mustLock(t, "tas-bo"),
		LockOpts{Iters: 30, CS: 8, Think: 10, CheckMutex: true, RecordOrder: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.FIFOInversions == 0 {
		t.Fatal("tas-bo under heavy contention showed zero inversions; counter suspect")
	}
}

func mustLock(t *testing.T, name string) LockInfo {
	t.Helper()
	info, ok := LockByName(name)
	if !ok {
		t.Fatalf("unknown lock %q", name)
	}
	return info
}

// QSync's headline property: interconnect traffic per acquisition is
// essentially constant in the number of contending processors, while
// test&set's grows.
func TestQSyncConstantTraffic(t *testing.T) {
	traffic := func(procs int) float64 {
		res, err := RunLockIn(nil,
			machine.Config{Procs: procs, Topo: topo.Bus, Seed: 5},
			mustLock(t, "qsync"),
			LockOpts{Iters: 50, CS: 10, CheckMutex: true},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res.TrafficPerAcq
	}
	t2, t16 := traffic(2), traffic(16)
	if t16 > t2*2.5 {
		t.Fatalf("qsync traffic grew from %.2f (P=2) to %.2f (P=16); expected near-constant", t2, t16)
	}
}

func TestTASTrafficGrowsWithProcs(t *testing.T) {
	traffic := func(procs int) float64 {
		res, err := RunLockIn(nil,
			machine.Config{Procs: procs, Topo: topo.Bus, Seed: 5},
			mustLock(t, "tas"),
			LockOpts{Iters: 30, CS: 10, CheckMutex: true},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res.TrafficPerAcq
	}
	t2, t16 := traffic(2), traffic(16)
	if t16 < t2*3 {
		t.Fatalf("tas traffic went %.2f (P=2) -> %.2f (P=16); expected strong growth", t2, t16)
	}
}

// On NUMA, QSync spins locally: remote references per acquisition must
// stay small and flat.
func TestQSyncLocalSpinOnNUMA(t *testing.T) {
	res, err := RunLockIn(nil,
		machine.Config{Procs: 16, Topo: topo.NUMA, Seed: 5},
		mustLock(t, "qsync"),
		LockOpts{Iters: 50, CS: 10, CheckMutex: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue (1 RMW on the cell) + link (1 store) + release CAS/store:
	// a handful of remote refs per acquisition even under full contention.
	// The CS counter itself adds 2 remote refs (load+store). Anything
	// beyond ~8 means somebody is spinning remotely.
	if res.TrafficPerAcq > 8 {
		t.Fatalf("qsync made %.2f remote refs per acquisition on NUMA; local-spin property broken", res.TrafficPerAcq)
	}
}

func TestTicketRemoteSpinOnNUMAIsCostly(t *testing.T) {
	run := func(name string) float64 {
		res, err := RunLockIn(nil,
			machine.Config{Procs: 16, Topo: topo.NUMA, Seed: 5},
			mustLock(t, name),
			LockOpts{Iters: 30, CS: 10, CheckMutex: true},
		)
		if err != nil {
			t.Fatal(err)
		}
		return res.TrafficPerAcq
	}
	ticket, qsync := run("ticket"), run("qsync")
	if ticket < qsync*2 {
		t.Fatalf("ticket remote refs %.2f not clearly above qsync %.2f on NUMA", ticket, qsync)
	}
}

func TestDurationModeAndFairnessSpread(t *testing.T) {
	res, err := RunLockIn(nil,
		machine.Config{Procs: 8, Topo: topo.Bus, Seed: 11},
		mustLock(t, "qsync"),
		LockOpts{Duration: 50000, CS: 10, CheckMutex: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Acquisitions == 0 {
		t.Fatal("duration mode made no acquisitions")
	}
	var min, max uint64 = ^uint64(0), 0
	for _, c := range res.AcqPerProc {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if min == 0 {
		t.Fatal("a processor was starved under the FIFO lock")
	}
	// FIFO lock: spread should be tight.
	if float64(max) > 1.5*float64(min) {
		t.Fatalf("qsync fairness spread too wide: min=%d max=%d", min, max)
	}
}

func TestUncontendedLockCost(t *testing.T) {
	for _, info := range Locks() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			cyc, traf, err := UncontendedLockCostIn(nil, topo.Bus, info)
			if err != nil {
				t.Fatal(err)
			}
			if cyc <= 0 {
				t.Fatalf("non-positive uncontended cost %d", cyc)
			}
			if cyc > 500 {
				t.Fatalf("uncontended acquire/release cost %d cycles is absurd", cyc)
			}
			_ = traf
		})
	}
}

// The classic single-processor ranking: test&set is the cheapest
// uncontended lock; the queueing mechanism pays a few extra cycles.
func TestUncontendedRankingTASBeatsQSync(t *testing.T) {
	tas, _, err := UncontendedLockCostIn(nil, topo.Bus, mustLock(t, "tas"))
	if err != nil {
		t.Fatal(err)
	}
	qs, _, err := UncontendedLockCostIn(nil, topo.Bus, mustLock(t, "qsync"))
	if err != nil {
		t.Fatal(err)
	}
	if tas > qs {
		t.Fatalf("uncontended tas (%d cycles) dearer than qsync (%d); model inverted", tas, qs)
	}
}

func TestBackoffParamsClamping(t *testing.T) {
	m, err := machine.New(machine.Config{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := NewTASBackoffParams(m, BackoffParams{Base: 0, Cap: -1})
	if l == nil {
		t.Fatal("nil lock")
	}
}

func TestLockByNameUnknown(t *testing.T) {
	if _, ok := LockByName("no-such-lock"); ok {
		t.Fatal("LockByName accepted a bogus name")
	}
}

func TestCountInversions(t *testing.T) {
	mk := func(enqs ...int) []grantRecord {
		rs := make([]grantRecord, len(enqs))
		for i, e := range enqs {
			rs[i] = grantRecord{enqueue: sim.Time(e), grant: sim.Time(i)}
		}
		return rs
	}
	cases := []struct {
		enqs []int
		want uint64
	}{
		{nil, 0},
		{[]int{1}, 0},
		{[]int{1, 2, 3, 4}, 0},
		{[]int{2, 1}, 1},
		{[]int{3, 2, 1}, 3},
		{[]int{1, 3, 2, 4}, 1},
		{[]int{4, 3, 2, 1}, 6},
	}
	for _, c := range cases {
		if got := countInversions(mk(c.enqs...)); got != c.want {
			t.Errorf("inversions(%v) = %d, want %d", c.enqs, got, c.want)
		}
	}
}
