// Benchmarks: one testing.B family per figure/table of the evaluation.
// Simulated experiments report cycles and interconnect transactions via
// b.ReportMetric (the wall-clock ns/op of a simulation is meaningless);
// real-runtime experiments report ns/op directly.
//
// Run everything:   go test -bench=. -benchmem
// One figure:       go test -bench=BenchmarkF2 -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/barriers"
	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/simsync"
	"repro/internal/topo"
	"repro/internal/workload"
)

// simLockBench runs one simulated lock configuration per b.N batch and
// reports cycles and traffic per acquisition.
func simLockBench(b *testing.B, tp topo.Topology, lockName string, procs int) {
	info, ok := simsync.LockByName(lockName)
	if !ok {
		b.Fatalf("unknown lock %q", lockName)
	}
	var cyc, traf float64
	for i := 0; i < b.N; i++ {
		res, err := simsync.RunLockIn(nil,
			machine.Config{Procs: procs, Topo: tp, Seed: uint64(i + 1)},
			info,
			simsync.LockOpts{Iters: 40, CS: 25, Think: 50, CheckMutex: true},
		)
		if err != nil {
			b.Fatal(err)
		}
		cyc, traf = res.CyclesPerAcq, res.TrafficPerAcq
	}
	b.ReportMetric(cyc, "cycles/acq")
	b.ReportMetric(traf, "traffic/acq")
}

// simBarrierBench likewise for barriers.
func simBarrierBench(b *testing.B, tp topo.Topology, barName string, procs int) {
	info, ok := simsync.BarrierByName(barName)
	if !ok {
		b.Fatalf("unknown barrier %q", barName)
	}
	var cyc, traf float64
	for i := 0; i < b.N; i++ {
		res, err := simsync.RunBarrierIn(nil,
			machine.Config{Procs: procs, Topo: tp, Seed: uint64(i + 1)},
			info,
			simsync.BarrierOpts{Episodes: 12, Work: 150},
		)
		if err != nil {
			b.Fatal(err)
		}
		cyc, traf = res.CyclesPerEpisode, res.TrafficPerEpisode
	}
	b.ReportMetric(cyc, "cycles/episode")
	b.ReportMetric(traf, "traffic/episode")
}

// BenchmarkEngineStep — raw event-engine throughput: schedule+pop one
// typed event per iteration against a standing population, the
// steady-state pattern of a running simulation. The allocation report
// is the point: the hot path must not allocate.
func BenchmarkEngineStep(b *testing.B) {
	e := sim.NewEngine()
	e.SetHandler(func(sim.EventKind, int32, int32) {})
	const standing = 1024
	for i := 0; i < standing; i++ {
		e.AtEvent(sim.Time(i), sim.EvDispatch, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AtEvent(e.Now()+standing, sim.EvDispatch, 0, 0)
		e.Step()
	}
}

// BenchmarkMachineSpinContended — host-side throughput of the machine
// hot path under heavy spin contention: 8 processors fighting over one
// lock on the bus machine, across the classic spin disciplines (raw
// test&set storm, test-and-test&set cache spin, exponential backoff).
// Reported simops/s is simulated memory operations per host second —
// the number that bounds sweep wall-clock. The machine is sized to the
// workload so the measurement is the hot path, not construction.
func BenchmarkMachineSpinContended(b *testing.B) {
	for _, name := range []string{"tas", "ttas", "tas-bo"} {
		info, ok := simsync.LockByName(name)
		if !ok {
			b.Fatalf("unknown lock %q", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var ops, acqs uint64
			for i := 0; i < b.N; i++ {
				res, err := simsync.RunLockIn(nil,
					machine.Config{Procs: 8, Topo: topo.Bus, Seed: uint64(i + 1),
						SharedWords: 1 << 12, LocalWords: 1 << 8},
					info,
					simsync.LockOpts{Iters: 40, CS: 25, Think: 50, CheckMutex: true},
				)
				if err != nil {
					b.Fatal(err)
				}
				st := res.Stats
				ops += st.Loads + st.Stores + st.RMWs
				acqs += res.Acquisitions
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
			b.ReportMetric(float64(acqs)/b.Elapsed().Seconds(), "acq/s")
		})
	}
}

// BenchmarkMachineSpinBatched — the same contended spin storms as
// BenchmarkMachineSpinContended, but in the pooled configuration the
// sweeps actually run: each iteration resets a recycled machine instead
// of constructing one, so the allocation report shows the steady-state
// cell cost (near zero) and simops/s the engine's throughput with
// construction amortized away. The simulated results are
// bit-identical between the two benchmarks — only host cost differs.
func BenchmarkMachineSpinBatched(b *testing.B) {
	for _, name := range []string{"tas", "ttas", "tas-bo"} {
		info, ok := simsync.LockByName(name)
		if !ok {
			b.Fatalf("unknown lock %q", name)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			pool := new(machine.Pool)
			var ops, acqs uint64
			for i := 0; i < b.N; i++ {
				res, err := simsync.RunLockIn(pool,
					machine.Config{Procs: 8, Topo: topo.Bus, Seed: uint64(i + 1),
						SharedWords: 1 << 12, LocalWords: 1 << 8},
					info,
					simsync.LockOpts{Iters: 40, CS: 25, Think: 50, CheckMutex: true},
				)
				if err != nil {
					b.Fatal(err)
				}
				st := res.Stats
				ops += st.Loads + st.Stores + st.RMWs
				acqs += res.Acquisitions
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
			b.ReportMetric(float64(acqs)/b.Elapsed().Seconds(), "acq/s")
		})
	}
}

// BenchmarkMachineStormBatched — the cross-processor spin-window
// workload: a 32-processor raw test&set storm on the bus machine, the
// configuration where nearly every event is an interleaved probe and
// each window pops the storm's pending probes in one commit. The
// windows/nowindows pair shares one pooled machine shape, so the ratio
// of their simops/s is the window mechanism's speedup; the simulated
// results are bit-identical (pinned by the determinism suite).
func BenchmarkMachineStormBatched(b *testing.B) {
	for _, tc := range []struct {
		name  string
		noWin bool
	}{{"windows", false}, {"nowindows", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			info, ok := simsync.LockByName("tas")
			if !ok {
				b.Fatal("tas lock missing")
			}
			b.ReportAllocs()
			pool := new(machine.Pool)
			var ops, acqs uint64
			for i := 0; i < b.N; i++ {
				res, err := simsync.RunLockIn(pool,
					machine.Config{Procs: 32, Topo: topo.Bus, Seed: uint64(i + 1),
						SharedWords: 1 << 12, LocalWords: 1 << 8, NoSpinWindows: tc.noWin},
					info,
					simsync.LockOpts{Iters: 40, CS: 25, Think: 50, CheckMutex: true},
				)
				if err != nil {
					b.Fatal(err)
				}
				st := res.Stats
				ops += st.Loads + st.Stores + st.RMWs
				acqs += res.Acquisitions
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
			b.ReportMetric(float64(acqs)/b.Elapsed().Seconds(), "acq/s")
		})
	}
}

// BenchmarkMachineClusterStorm — the same 32-processor raw test&set
// storm on the two-level cluster topology. The hierarchical storm
// batches too: a topology's hop prices cannot change mid-storm, so
// each spinner's service time is known, and a window retimes spinners
// of both distance classes in one commit. This benchmark runs the
// default (windowed) configuration the sweeps use;
// BenchmarkMachineClusterStormBatched below isolates the mechanism
// with a windows/nowindows pair. The sharded pair (ctr-sharded under
// the same pool) shows what group-home placement buys back.
func BenchmarkMachineClusterStorm(b *testing.B) {
	b.Run("lock/tas", func(b *testing.B) {
		info, ok := simsync.LockByName("tas")
		if !ok {
			b.Fatal("tas lock missing")
		}
		b.ReportAllocs()
		pool := new(machine.Pool)
		var ops, acqs uint64
		for i := 0; i < b.N; i++ {
			res, err := simsync.RunLockIn(pool,
				machine.Config{Procs: 32, Topo: topo.Cluster, Seed: uint64(i + 1),
					SharedWords: 1 << 12, LocalWords: 1 << 8},
				info,
				simsync.LockOpts{Iters: 40, CS: 25, Think: 50, CheckMutex: true},
			)
			if err != nil {
				b.Fatal(err)
			}
			st := res.Stats
			ops += st.Loads + st.Stores + st.RMWs
			acqs += res.Acquisitions
		}
		b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
		b.ReportMetric(float64(acqs)/b.Elapsed().Seconds(), "acq/s")
	})
	b.Run("ctr-sharded", func(b *testing.B) {
		info, ok := simsync.CounterByName("ctr-sharded")
		if !ok {
			b.Fatal("ctr-sharded missing")
		}
		b.ReportAllocs()
		pool := new(machine.Pool)
		var ops uint64
		for i := 0; i < b.N; i++ {
			res, err := simsync.RunCounterIn(pool,
				machine.Config{Procs: 32, Topo: topo.Cluster, Seed: uint64(i + 1),
					SharedWords: 1 << 12, LocalWords: 1 << 8},
				info,
				simsync.CounterOpts{Incs: 60},
			)
			if err != nil {
				b.Fatal(err)
			}
			st := res.Stats
			ops += st.Loads + st.Stores + st.RMWs
		}
		b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
	})
}

// BenchmarkMachineClusterStormBatched — the cluster twin of
// BenchmarkMachineStormBatched: a 32-processor raw test&set storm on
// the two-level cluster topology, windows on vs off over one pooled
// machine shape. The storm mixes the topology's two traversal classes
// (intra-cluster probes against the lock's home module and double-cost
// inter-cluster ones), so the windowed leg's sets mix two service
// times rather than the bus machine's one; the ratio of the two legs'
// simops/s is what windows buy on a hierarchical machine. The
// simulated results are bit-identical (pinned by the determinism
// suite's mixed-class storm test).
func BenchmarkMachineClusterStormBatched(b *testing.B) {
	for _, tc := range []struct {
		name  string
		noWin bool
	}{{"windows", false}, {"nowindows", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			info, ok := simsync.LockByName("tas")
			if !ok {
				b.Fatal("tas lock missing")
			}
			b.ReportAllocs()
			pool := new(machine.Pool)
			var ops, acqs uint64
			for i := 0; i < b.N; i++ {
				res, err := simsync.RunLockIn(pool,
					machine.Config{Procs: 32, Topo: topo.Cluster, Seed: uint64(i + 1),
						SharedWords: 1 << 12, LocalWords: 1 << 8, NoSpinWindows: tc.noWin},
					info,
					simsync.LockOpts{Iters: 40, CS: 25, Think: 50, CheckMutex: true},
				)
				if err != nil {
					b.Fatal(err)
				}
				st := res.Stats
				ops += st.Loads + st.Stores + st.RMWs
				acqs += res.Acquisitions
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
			b.ReportMetric(float64(acqs)/b.Elapsed().Seconds(), "acq/s")
		})
	}
}

// BenchmarkMachineDeepClusterStorm — the P=256 deep-topology point of
// the scaling sweeps: a raw test&set storm on the cluster machine four
// times past the bus protocol's 64-processor ceiling, where each window
// pops and relinks about a hundred pending probes and the window
// eligibility mask spans multiple words. Windows on vs off, pooled;
// this is the configuration whose wall-clock bounds the P ∈ {256,
// 1024} sweep tables in EXPERIMENTS.md.
func BenchmarkMachineDeepClusterStorm(b *testing.B) {
	for _, tc := range []struct {
		name  string
		noWin bool
	}{{"windows", false}, {"nowindows", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			info, ok := simsync.LockByName("tas")
			if !ok {
				b.Fatal("tas lock missing")
			}
			b.ReportAllocs()
			pool := new(machine.Pool)
			var ops, acqs uint64
			for i := 0; i < b.N; i++ {
				res, err := simsync.RunLockIn(pool,
					machine.Config{Procs: 256, Topo: topo.Cluster, Seed: uint64(i + 1),
						SharedWords: 1 << 12, LocalWords: 1 << 8, NoSpinWindows: tc.noWin},
					info,
					simsync.LockOpts{Iters: 4, CS: 25, Think: 50, CheckMutex: true},
				)
				if err != nil {
					b.Fatal(err)
				}
				st := res.Stats
				ops += st.Loads + st.Stores + st.RMWs
				acqs += res.Acquisitions
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "simops/s")
			b.ReportMetric(float64(acqs)/b.Elapsed().Seconds(), "acq/s")
		})
	}
}

// BenchmarkT1 — uncontended latency, simulated bus machine. Pooled,
// as the harness runs it: one acquire/release pair per reset machine.
func BenchmarkT1_Uncontended(b *testing.B) {
	for _, li := range simsync.Locks() {
		li := li
		b.Run(li.Name, func(b *testing.B) {
			b.ReportAllocs()
			pool := new(machine.Pool)
			var cyc float64
			for i := 0; i < b.N; i++ {
				c, _, err := simsync.UncontendedLockCostIn(pool, topo.Bus, li)
				if err != nil {
					b.Fatal(err)
				}
				cyc = float64(c)
			}
			b.ReportMetric(cyc, "cycles/pair")
		})
	}
}

// BenchmarkF1F2 — bus machine lock sweep (cycles + bus transactions).
func BenchmarkF1F2_BusLocks(b *testing.B) {
	for _, li := range simsync.Locks() {
		for _, p := range []int{2, 8, 24} {
			b.Run(fmt.Sprintf("%s/P=%d", li.Name, p), func(b *testing.B) {
				simLockBench(b, topo.Bus, li.Name, p)
			})
		}
	}
}

// BenchmarkF3F4 — NUMA machine lock sweep (cycles + remote references).
func BenchmarkF3F4_NUMALocks(b *testing.B) {
	for _, li := range simsync.Locks() {
		for _, p := range []int{2, 8, 32} {
			b.Run(fmt.Sprintf("%s/P=%d", li.Name, p), func(b *testing.B) {
				simLockBench(b, topo.NUMA, li.Name, p)
			})
		}
	}
}

// BenchmarkF5 — backoff sensitivity ablation at P=16 on the bus machine.
func BenchmarkF5_BackoffAblation(b *testing.B) {
	for _, bp := range []simsync.BackoffParams{
		{Base: 4, Cap: 256}, {Base: 16, Cap: 2048}, {Base: 256, Cap: 16384},
	} {
		bp := bp
		b.Run(fmt.Sprintf("tas-bo/base=%d,cap=%d", bp.Base, bp.Cap), func(b *testing.B) {
			var cyc float64
			for i := 0; i < b.N; i++ {
				info := simsync.LockInfo{
					Name: "tas-bo",
					Make: func(m *machine.Machine) simsync.Lock {
						return simsync.NewTASBackoffParams(m, bp)
					},
				}
				res, err := simsync.RunLockIn(nil,
					machine.Config{Procs: 16, Topo: topo.Bus, Seed: uint64(i + 1)},
					info, simsync.LockOpts{Iters: 40, CS: 25, Think: 50, CheckMutex: true},
				)
				if err != nil {
					b.Fatal(err)
				}
				cyc = res.CyclesPerAcq
			}
			b.ReportMetric(cyc, "cycles/acq")
		})
	}
	b.Run("qsync/untuned", func(b *testing.B) {
		simLockBench(b, topo.Bus, "qsync", 16)
	})
}

// BenchmarkF6 — critical-section length crossover at P=16.
func BenchmarkF6_CSLength(b *testing.B) {
	for _, cs := range []int64{0, 400, 1600} {
		for _, name := range []string{"tas", "ticket", "qsync"} {
			cs, name := cs, name
			b.Run(fmt.Sprintf("%s/cs=%d", name, cs), func(b *testing.B) {
				info, _ := simsync.LockByName(name)
				var cyc float64
				for i := 0; i < b.N; i++ {
					res, err := simsync.RunLockIn(nil,
						machine.Config{Procs: 16, Topo: topo.Bus, Seed: uint64(i + 1)},
						info, simsync.LockOpts{Iters: 40, CS: sim.Time(cs), Think: sim.Time(2 * cs), CheckMutex: true},
					)
					if err != nil {
						b.Fatal(err)
					}
					cyc = res.CyclesPerAcq
				}
				b.ReportMetric(cyc, "cycles/acq")
			})
		}
	}
}

// BenchmarkF7 — barrier sweep on the bus machine.
func BenchmarkF7_BusBarriers(b *testing.B) {
	for _, bi := range simsync.Barriers() {
		for _, p := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/P=%d", bi.Name, p), func(b *testing.B) {
				simBarrierBench(b, topo.Bus, bi.Name, p)
			})
		}
	}
}

// BenchmarkF8 — barrier sweep on the NUMA machine.
func BenchmarkF8_NUMABarriers(b *testing.B) {
	for _, bi := range simsync.Barriers() {
		for _, p := range []int{8, 32} {
			b.Run(fmt.Sprintf("%s/P=%d", bi.Name, p), func(b *testing.B) {
				simBarrierBench(b, topo.NUMA, bi.Name, p)
			})
		}
	}
}

// BenchmarkF9 — real-runtime reader-writer locks across read
// fractions, swept over the whole rwlock registry.
func BenchmarkF9_RWMutex(b *testing.B) {
	for _, info := range locks.RWLocks() {
		for _, frac := range []float64{0.5, 0.9, 1.0} {
			info, frac := info, frac
			b.Run(fmt.Sprintf("%s/read=%.2f", info.Name, frac), func(b *testing.B) {
				rw := info.New(runtime.GOMAXPROCS(0))
				b.RunParallel(func(pb *testing.PB) {
					rng := uint64(0x9e3779b97f4a7c15)
					for pb.Next() {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						if float64(rng%1000) < frac*1000 {
							tok := rw.RLock()
							rw.RUnlock(tok)
						} else {
							rw.Lock()
							rw.Unlock()
						}
					}
				})
			})
		}
	}
}

// BenchmarkF10 — real-runtime bounded-buffer pipeline.
func BenchmarkF10_Pipeline(b *testing.B) {
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("w=%d", workers), func(b *testing.B) {
			var itemsPerSec float64
			for i := 0; i < b.N; i++ {
				res := workload.RunPipeline(workload.PipelineOpts{
					Producers: workers, Consumers: workers,
					Items: 20000, Capacity: 64, Mode: core.SpinPark,
				})
				if !res.SumValidated {
					b.Fatal("pipeline checksum mismatch")
				}
				itemsPerSec = res.ItemsPerSec
			}
			b.ReportMetric(itemsPerSec, "items/s")
		})
	}
}

// BenchmarkF14 — simulated semaphores through the bounded buffer.
func BenchmarkF14_SimSemaphores(b *testing.B) {
	for _, si := range simsync.Semaphores() {
		for _, p := range []int{4, 16} {
			si, p := si, p
			b.Run(fmt.Sprintf("%s/P=%d", si.Name, p), func(b *testing.B) {
				var cyc, traf float64
				for i := 0; i < b.N; i++ {
					res, err := simsync.RunProducerConsumerIn(nil,
						machine.Config{Procs: p, Topo: topo.Bus, Seed: uint64(i + 1)},
						si, simsync.PCOpts{Items: 60, Capacity: 4, Work: 20},
					)
					if err != nil {
						b.Fatal(err)
					}
					cyc, traf = res.CyclesPerItem, res.TrafficPerItem
				}
				b.ReportMetric(cyc, "cycles/item")
				b.ReportMetric(traf, "traffic/item")
			})
		}
	}
}

// BenchmarkF13 — simulated reader-writer locks.
func BenchmarkF13_SimRWLocks(b *testing.B) {
	for _, ri := range simsync.RWLocks() {
		for _, frac := range []float64{0.5, 0.9} {
			ri, frac := ri, frac
			b.Run(fmt.Sprintf("%s/read=%.1f", ri.Name, frac), func(b *testing.B) {
				var cyc float64
				for i := 0; i < b.N; i++ {
					res, err := simsync.RunRWIn(nil,
						machine.Config{Procs: 16, Topo: topo.Bus, Seed: uint64(i + 1)},
						ri, simsync.RWOpts{Iters: 30, ReadFraction: frac, Work: 40, Think: 60},
					)
					if err != nil {
						b.Fatal(err)
					}
					cyc = res.CyclesPerOp
				}
				b.ReportMetric(cyc, "cycles/op")
			})
		}
	}
}

// BenchmarkF11 — real-runtime lock acquire/release under contention.
func BenchmarkF11_RealLocks(b *testing.B) {
	for _, li := range locks.All() {
		li := li
		b.Run(li.Name, func(b *testing.B) {
			l := li.New(runtime.GOMAXPROCS(0) * 2)
			counter := 0
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					l.Lock()
					counter++
					l.Unlock()
				}
			})
		})
	}
}

// BenchmarkF12 — spin vs park, oversubscribed by 4x.
func BenchmarkF12_Oversubscription(b *testing.B) {
	n := runtime.GOMAXPROCS(0)
	for _, tc := range []struct {
		name string
		mode core.WaitMode
	}{{"spin", core.Spin}, {"spin-park", core.SpinPark}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			m := &core.Mutex{Mode: tc.mode}
			workers := n * 4
			var wg sync.WaitGroup
			per := b.N/workers + 1
			counter := 0
			b.ResetTimer()
			for g := 0; g < workers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m.Lock()
						counter++
						m.Unlock()
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkF16_Counters — simulated hot-spot counters at scale: the
// sharded stripe counter against fetch&add and software combining.
func BenchmarkF16_Counters(b *testing.B) {
	for _, ci := range simsync.Counters() {
		for _, p := range []int{16, 64} {
			ci, p := ci, p
			b.Run(fmt.Sprintf("%s/P=%d", ci.Name, p), func(b *testing.B) {
				var cyc, traf float64
				for i := 0; i < b.N; i++ {
					res, err := simsync.RunCounterIn(nil,
						machine.Config{Procs: p, Topo: topo.NUMA, Seed: uint64(i + 1)},
						ci, simsync.CounterOpts{Incs: 40},
					)
					if err != nil {
						b.Fatal(err)
					}
					cyc, traf = res.CyclesPerInc, res.TrafficPerInc
				}
				b.ReportMetric(cyc, "cycles/inc")
				b.ReportMetric(traf, "traffic/inc")
			})
		}
	}
}

// BenchmarkCountersReal — real-runtime hot-spot counter: one atomic
// word vs the sharded stripe counter, all cores incrementing.
func BenchmarkCountersReal(b *testing.B) {
	b.Run("central", func(b *testing.B) {
		c := repro.NewCentralCounter() // one plain atomic word
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
		if c.Load() != int64(b.N) {
			b.Fatalf("lost updates: %d != %d", c.Load(), b.N)
		}
	})
	b.Run("sharded", func(b *testing.B) {
		c := repro.NewShardedCounter(0)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
		if c.Load() != int64(b.N) {
			b.Fatalf("lost updates: %d != %d", c.Load(), b.N)
		}
	})
}

// BenchmarkShardedRWRead — read-side scalability of the sharded
// reader-writer lock vs the central queue lock.
func BenchmarkShardedRWRead(b *testing.B) {
	b.Run("rw-qsync", func(b *testing.B) {
		var rw repro.RWMutex
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				tok := rw.RLock()
				rw.RUnlock(tok)
			}
		})
	})
	b.Run("rw-sharded", func(b *testing.B) {
		rw := repro.NewShardedRWMutex(0)
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				tok := rw.RLock()
				rw.RUnlock(tok)
			}
		})
	})
}

// BenchmarkBarriers_Real — real-runtime barrier episode cost.
func BenchmarkBarriers_Real(b *testing.B) {
	parties := runtime.GOMAXPROCS(0)
	if parties > 8 {
		parties = 8
	}
	for _, bi := range barriers.All() {
		bi := bi
		b.Run(bi.Name, func(b *testing.B) {
			bar := bi.New(parties)
			var wg sync.WaitGroup
			b.ResetTimer()
			for id := 0; id < parties; id++ {
				id := id
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N; i++ {
						bar.Wait(id)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// BenchmarkUncontendedReal — T1's real-runtime twin.
func BenchmarkUncontendedReal(b *testing.B) {
	for _, li := range locks.All() {
		li := li
		b.Run(li.Name, func(b *testing.B) {
			l := li.New(1)
			for i := 0; i < b.N; i++ {
				l.Lock()
				l.Unlock()
			}
		})
	}
}
