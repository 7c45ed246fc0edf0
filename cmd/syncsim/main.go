// Command syncsim runs a single simulated workload and prints its
// counters — the microscope companion to syncbench's survey. It covers
// all five simulated algorithm families (locks, barriers, reader-writer
// locks, semaphores, hot-spot counters) and can compare several
// algorithms of one family side by side:
//
//	syncsim -kind lock -algos qsync -topo numa -procs 16 -iters 200
//	syncsim -kind lock -algos tas,ticket,qsync -topo bus -procs 8
//	syncsim -kind barrier -algos dissemination -topo bus -procs 32
//	syncsim -kind counter -algos ctr-fa,ctr-sharded -topo cluster -procs 32
//	syncsim -kind rw -algos rw-qsync -readfrac 0.9 -procs 16
//	syncsim -kind sem -algos sem-central,sem-sharded -topo cluster -procs 8
//	syncsim -kind lock -algos qheal -faults R1 -procs 16
//
// Topologies resolve through the registry in internal/topo (-names
// lists them). -faults
// drives the lock and barrier workloads through a named fault level
// (the FT-sweep axis; -names lists the levels), reporting
// availability-style counters — orphaned acquisitions,
// time-to-recovery — instead of the fault-free latency breakdown.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/simsync"
	"repro/internal/topo"
)

func main() {
	var (
		kind     = flag.String("kind", "lock", "lock, barrier, rw, sem, or counter")
		algos    = flag.String("algos", "", "comma-separated algorithm names (default per kind: qsync, qsync-tree, rw-qsync, sem-qsync, ctr-sharded; see -names)")
		topoName = flag.String("topo", "bus", "machine topology (see -names)")
		procs    = flag.Int("procs", 8, "processors")
		iters    = flag.Int("iters", 100, "operations per processor (lock, rw)")
		episodes = flag.Int("episodes", 50, "episodes (barrier)")
		items    = flag.Int("items", 100, "items through the buffer (sem)")
		incs     = flag.Int("incs", 100, "increments per processor (counter)")
		cs       = flag.Int64("cs", 25, "critical-section work, cycles (lock)")
		think    = flag.Int64("think", 50, "mean think time, cycles")
		readfrac = flag.Float64("readfrac", 0.9, "read fraction (rw)")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		faultLvl = flag.String("faults", "", "fault-level name to inject (lock and barrier kinds; see -names)")
		names    = flag.Bool("names", false, "list algorithm names and exit")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if err := checkFlags(*procs, *iters, *episodes, *items, *incs, *cs, *think, *readfrac); err != nil {
		fail("%v", err)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fail("%v", err)
		}
		cpuStop := func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fail("%v", err)
		}
		addProfileStop(cpuStop)
	}
	if *memProf != "" {
		path := *memProf
		addProfileStop(func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "syncsim:", err)
				return
			}
			defer f.Close()
			// Heap profiles report the state at the last completed GC;
			// run one so the snapshot is of live data at exit, not of a
			// stale mid-run cycle.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "syncsim:", err)
			}
		})
	}
	defer stopProfiles()

	if *names {
		fmt.Printf("locks:     %s\n", strings.Join(simsync.LockSet.Names(), " "))
		fmt.Printf("barriers:  %s\n", strings.Join(simsync.BarrierSet.Names(), " "))
		fmt.Printf("rwlocks:   %s\n", strings.Join(simsync.RWLockSet.Names(), " "))
		fmt.Printf("semaphores: %s\n", strings.Join(simsync.SemaphoreSet.Names(), " "))
		fmt.Printf("counters:  %s\n", strings.Join(simsync.CounterSet.Names(), " "))
		fmt.Printf("topologies: %s\n", strings.Join(topo.Names(), " "))
		var levels []string
		for _, lv := range harness.FaultLevels() {
			levels = append(levels, lv.Name)
		}
		fmt.Printf("fault levels: %s\n", strings.Join(levels, " "))
		return
	}

	tp, ok := topo.ByName(*topoName)
	if !ok {
		fail("unknown topology %q (known: %s)", *topoName, strings.Join(topo.Names(), " "))
	}
	cfg := machine.Config{Procs: *procs, Topo: tp, Seed: *seed}

	selection := registry.SplitList(*algos)

	if *faultLvl != "" {
		lv, ok := harness.FaultLevelByName(*faultLvl)
		if !ok {
			var known []string
			for _, l := range harness.FaultLevels() {
				known = append(known, l.Name)
			}
			fail("unknown fault level %q (known: %s)", *faultLvl, strings.Join(known, " "))
		}
		runFaulted(cfg, lv, *kind, selection, *iters, *episodes, sim.Time(*cs), sim.Time(*think))
		return
	}

	switch *kind {
	case "lock":
		for _, info := range selectFrom(simsync.LockSet, selection, "qsync") {
			res, err := simsync.RunLockIn(nil, cfg, info, simsync.LockOpts{
				Iters: *iters, CS: sim.Time(*cs), Think: sim.Time(*think),
				CheckMutex: true, RecordOrder: true,
			})
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("lock=%s model=%s procs=%d iters=%d\n", res.Lock, res.Topo.Name(), res.Procs, *iters)
			fmt.Printf("  acquisitions:      %d\n", res.Acquisitions)
			fmt.Printf("  elapsed cycles:    %d\n", res.Cycles)
			fmt.Printf("  cycles/acq:        %.1f\n", res.CyclesPerAcq)
			fmt.Printf("  traffic/acq:       %.2f (%s)\n", res.TrafficPerAcq, tp.Discipline().Unit())
			fmt.Printf("  FIFO inversions:   %d\n", res.FIFOInversions)
			fmt.Printf("  events simulated:  %d\n", res.Stats.Events)
		}
	case "barrier":
		for _, info := range selectFrom(simsync.BarrierSet, selection, "qsync-tree") {
			res, err := simsync.RunBarrierIn(nil, cfg, info, simsync.BarrierOpts{
				Episodes: *episodes, Work: sim.Time(*think),
			})
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("barrier=%s model=%s procs=%d episodes=%d\n", res.Barrier, res.Topo.Name(), res.Procs, res.Episodes)
			fmt.Printf("  elapsed cycles:    %d\n", res.Cycles)
			fmt.Printf("  cycles/episode:    %.1f\n", res.CyclesPerEpisode)
			fmt.Printf("  traffic/episode:   %.2f (%s)\n", res.TrafficPerEpisode, tp.Discipline().Unit())
			fmt.Printf("  events simulated:  %d\n", res.Stats.Events)
		}
	case "rw":
		for _, info := range selectFrom(simsync.RWLockSet, selection, "rw-qsync") {
			res, err := simsync.RunRWIn(nil, cfg, info, simsync.RWOpts{
				Iters: *iters, ReadFraction: *readfrac,
				Work: sim.Time(*cs), Think: sim.Time(*think),
			})
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("rwlock=%s model=%s procs=%d readfrac=%.2f\n", res.Lock, res.Topo.Name(), res.Procs, *readfrac)
			fmt.Printf("  reads / writes:    %d / %d\n", res.Reads, res.Writes)
			fmt.Printf("  elapsed cycles:    %d\n", res.Cycles)
			fmt.Printf("  cycles/op:         %.1f\n", res.CyclesPerOp)
			fmt.Printf("  traffic/op:        %.2f (%s)\n", res.TrafficPerOp, tp.Discipline().Unit())
			fmt.Printf("  events simulated:  %d\n", res.Stats.Events)
		}
	case "sem":
		for _, info := range selectFrom(simsync.SemaphoreSet, selection, "sem-qsync") {
			res, err := simsync.RunProducerConsumerIn(nil, cfg, info, simsync.PCOpts{
				Items: *items, Capacity: 4, Work: sim.Time(*cs),
			})
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("semaphore=%s model=%s procs=%d items=%d\n", res.Semaphore, res.Topo.Name(), res.Procs, res.Items)
			fmt.Printf("  elapsed cycles:    %d\n", res.Cycles)
			fmt.Printf("  cycles/item:       %.1f\n", res.CyclesPerItem)
			fmt.Printf("  traffic/item:      %.2f (%s)\n", res.TrafficPerItem, tp.Discipline().Unit())
			fmt.Printf("  events simulated:  %d\n", res.Stats.Events)
		}
	case "counter":
		for _, info := range selectFrom(simsync.CounterSet, selection, "ctr-sharded") {
			res, err := simsync.RunCounterIn(nil, cfg, info, simsync.CounterOpts{
				Incs: *incs, Think: sim.Time(*think),
			})
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("counter=%s model=%s procs=%d incs=%d\n", res.Counter, res.Topo.Name(), res.Procs, res.Incs)
			fmt.Printf("  elapsed cycles:    %d\n", res.Cycles)
			fmt.Printf("  cycles/inc:        %.1f\n", res.CyclesPerInc)
			fmt.Printf("  traffic/inc:       %.2f (%s)\n", res.TrafficPerInc, tp.Discipline().Unit())
			fmt.Printf("  events simulated:  %d\n", res.Stats.Events)
		}
	default:
		fail("unknown kind %q (lock, barrier, rw, sem, counter)", *kind)
	}
}

// checkFlags rejects out-of-range workload flags before anything runs.
// Unchecked, a negative count panics deep inside a runner or wraps to a
// huge unsigned total, -procs 0 reads as "unset" in
// machine.Config.Defaults and runs one processor, and a read fraction
// above 1 runs an all-reader workload.
func checkFlags(procs, iters, episodes, items, incs int, cs, think int64, readfrac float64) error {
	for _, f := range []struct {
		name   string
		v, min int64
	}{
		{"procs", int64(procs), 1},
		{"iters", int64(iters), 1},
		{"episodes", int64(episodes), 1},
		{"items", int64(items), 1},
		{"incs", int64(incs), 1},
		{"cs", cs, 0},
		{"think", think, 0},
	} {
		if f.v < f.min {
			return fmt.Errorf("-%s %d out of range: must be at least %d", f.name, f.v, f.min)
		}
	}
	if !(readfrac >= 0 && readfrac <= 1) { // also rejects NaN
		return fmt.Errorf("-readfrac %g out of range: must be in [0, 1]", readfrac)
	}
	return nil
}

// runFaulted drives the selected algorithms through one named fault
// level, the single-cell microscope for the FT sweeps. Only the lock
// and barrier runners report resilience counters; the other families
// are rejected rather than silently run fault-free.
func runFaulted(cfg machine.Config, lv harness.FaultLevel, kind string, selection []string, iters, episodes int, cs, think sim.Time) {
	cfg.MaxSteps = 2_000_000
	plan := func(units int) *fault.Plan {
		if lv.None {
			return fault.NewPlan(lv.Name)
		}
		return fault.Generate(fmt.Sprintf("%s/%s", cfg.Topo.Name(), lv.Name), cfg.Seed, lv.Spec(cfg.Procs, units))
	}
	switch kind {
	case "lock":
		cfg.Faults = plan(iters)
		for _, info := range selectFrom(simsync.LockSet, selection, "qsync") {
			res, err := simsync.RunLockIn(nil, cfg, info, simsync.LockOpts{
				Iters: iters, CS: cs, Think: think, Budget: 4096,
			})
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("lock=%s model=%s procs=%d iters=%d faults=%s\n", res.Lock, res.Topo.Name(), res.Procs, iters, cfg.Faults.Name())
			fmt.Printf("  outcome:           %s\n", res.Outcome)
			fmt.Printf("  acquisitions:      %d of %d offered\n", res.Acquisitions, uint64(iters)*uint64(res.Procs))
			fmt.Printf("  timeouts:          %d\n", res.Timeouts)
			fmt.Printf("  orphaned acq:      %d\n", res.Orphaned)
			fmt.Printf("  fenced writes:     %d\n", res.StaleWrites)
			fmt.Printf("  crashed/recovered: %d / %d\n", res.Crashed, res.Recovered)
			if res.Recoveries > 0 {
				fmt.Printf("  mean ttr (cycles): %d\n", int64(res.RecoveryCycles)/int64(res.Recoveries))
			}
			fmt.Printf("  elapsed cycles:    %d\n", res.Cycles)
			fmt.Printf("  acq/kilocycle:     %.2f\n", res.AcqPerKCycle())
		}
	case "barrier":
		cfg.Faults = plan(episodes)
		for _, info := range selectFrom(simsync.BarrierSet, selection, "qsync-tree") {
			res, err := simsync.RunBarrierIn(nil, cfg, info, simsync.BarrierOpts{
				Episodes: episodes, Work: think,
			})
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("barrier=%s model=%s procs=%d episodes=%d faults=%s\n", res.Barrier, cfg.Topo.Name(), res.Procs, episodes, cfg.Faults.Name())
			fmt.Printf("  outcome:           %s\n", res.Outcome)
			fmt.Printf("  episodes done:     %d of %d offered\n", res.Completed, uint64(episodes)*uint64(res.Procs))
			fmt.Printf("  crashed/recovered: %d / %d\n", res.Crashed, res.Recovered)
			if res.Recoveries > 0 {
				fmt.Printf("  mean ttr (cycles): %d\n", int64(res.RecoveryCycles)/int64(res.Recoveries))
			}
			fmt.Printf("  elapsed cycles:    %d\n", res.Cycles)
		}
	default:
		fail("-faults supports -kind lock and barrier, not %q", kind)
	}
}

// selectFrom resolves the selection against one family's registry,
// defaulting to the family's mechanism variant when nothing was asked
// for. Unknown names are fatal — the strict Select path, since an
// explicit request with a typo should not silently run something else.
func selectFrom[T any](set interface {
	Select([]string) ([]T, error)
}, names []string, deflt string) []T {
	if len(names) == 0 {
		names = []string{deflt}
	}
	infos, err := set.Select(names)
	if err != nil {
		fail("%v (try -names)", err)
	}
	return infos
}

// profileStops holds the -cpuprofile/-memprofile flush actions. They
// run once, on the normal return of main or inside fail — os.Exit skips
// deferred functions, and a truncated CPU profile is unreadable.
var (
	profileStops []func()
	profileOnce  sync.Once
)

func addProfileStop(fn func()) { profileStops = append(profileStops, fn) }

func stopProfiles() {
	profileOnce.Do(func() {
		for _, fn := range profileStops {
			fn()
		}
	})
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "syncsim: "+format+"\n", args...)
	stopProfiles()
	os.Exit(1)
}
