// Command syncbench regenerates every figure and table of the
// reconstructed ICPP 1991 evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// Usage:
//
//	syncbench -list
//	syncbench -all                 # full-size run of every experiment
//	syncbench -run F2,F4           # selected tables
//	syncbench -quick -all          # small sweeps, finishes in seconds
//	syncbench -all -csv results/   # also write one CSV per table
//	syncbench -all -algos=tas,qsync  # restrict sweeps to named algorithms
//	syncbench -topo=cluster -run L1-cluster,X1  # topology selection (see -list)
//	syncbench -faults=L0,R2 -run FT3,FT4  # fault-level selection (see -list)
//	syncbench -shardedjson BENCH_sharded.json  # real-runtime ops/sec snapshot
//	syncbench -simjson BENCH_sim.json -simlabel "engine milestone"
//	                               # merge a dated snapshot into the trajectory
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/locks"
	"repro/internal/machine"
	"repro/internal/registry"
	"repro/internal/sharded"
	"repro/internal/simsync"
	"repro/internal/topo"
	"repro/internal/workload"
)

func main() {
	os.Exit(run())
}

// run is main minus os.Exit, so the -cpuprofile/-memprofile defers
// flush on every exit path, including errors.
func run() int {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		runIDs   = flag.String("run", "", "comma-separated table ids to regenerate (e.g. F2,T3)")
		all      = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "small sweeps (seconds instead of minutes)")
		csvDir   = flag.String("csv", "", "directory to write one CSV per table")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		algos    = flag.String("algos", "", "comma-separated algorithm names to restrict sweeps to (per family; families with no match run in full)")
		topos    = flag.String("topo", "", "comma-separated topology names for the topology-axis experiments (X1/X2 and the per-topology battery); see -list")
		faults   = flag.String("faults", "", "comma-separated fault-level names for the fault-axis experiments (FT1/FT2 and FT3/FT4); see -list")
		benchJS  = flag.String("shardedjson", "", "write a machine-readable real-runtime ops/sec snapshot (e.g. BENCH_sharded.json)")
		simJS    = flag.String("simjson", "", "merge a dated simulator-throughput snapshot into this trajectory file (e.g. BENCH_sim.json); earlier snapshots are preserved")
		simLabel = flag.String("simlabel", "", "optional label recorded on the -simjson snapshot")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		verbose  = flag.Bool("v", false, "print per-sweep-point progress")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "syncbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "syncbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "syncbench:", err)
				return
			}
			defer f.Close()
			// The heap profile reflects the most recently completed GC
			// cycle, so force one first: without it the snapshot shows
			// whatever the last incidental GC saw — including since-freed
			// sweep machinery — instead of what is actually live on exit.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "syncbench:", err)
			}
		}()
	}

	if *list {
		fmt.Println("experiments (table ids -> title):")
		for _, e := range harness.Registry() {
			fmt.Printf("  %-12s %s\n", strings.Join(e.IDs, "+"), e.Title)
		}
		fmt.Printf("topologies (-topo): %s\n", strings.Join(topo.Names(), " "))
		fmt.Println("fault levels (-faults):")
		for _, lv := range harness.FaultLevels() {
			fmt.Printf("  %-12s %s\n", lv.Name, lv.Note)
		}
		return 0
	}

	algoList := registry.SplitList(*algos)
	if err := harness.ValidateAlgos(algoList); err != nil {
		fmt.Fprintln(os.Stderr, "syncbench:", err)
		return 2
	}
	topoList := registry.SplitList(*topos)
	if err := harness.ValidateTopos(topoList); err != nil {
		fmt.Fprintln(os.Stderr, "syncbench:", err)
		return 2
	}
	faultList := registry.SplitList(*faults)
	if err := harness.ValidateFaults(faultList); err != nil {
		fmt.Fprintln(os.Stderr, "syncbench:", err)
		return 2
	}

	var ids []string
	if *runIDs != "" {
		for _, id := range strings.Split(*runIDs, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if *benchJS != "" {
		if err := writeShardedBench(*benchJS, *quick, algoList); err != nil {
			fmt.Fprintln(os.Stderr, "syncbench:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *benchJS)
	}
	if *simJS != "" {
		if err := writeSimBench(*simJS, *quick, *simLabel); err != nil {
			fmt.Fprintln(os.Stderr, "syncbench:", err)
			return 1
		}
		fmt.Printf("wrote %s\n", *simJS)
	}
	if len(ids) == 0 && !*all {
		if *benchJS != "" || *simJS != "" {
			return 0
		}
		fmt.Fprintln(os.Stderr, "nothing to do: pass -all, -run <ids>, -shardedjson <path>, -simjson <path>, or -list")
		flag.Usage()
		return 2
	}

	opts := harness.Options{Quick: *quick, Seed: *seed, CSVDir: *csvDir, Algos: algoList, Topos: topoList, Faults: faultList}
	if *verbose {
		opts.Progress = os.Stderr
	}
	if err := harness.RunIDs(ids, opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "syncbench:", err)
		return 1
	}
	return 0
}

// simBenchResult is one line of a BENCH_sim.json snapshot: host-side
// throughput of the simulator on one fixed contended workload. Model
// carries the topology label (the json key predates the topology
// subsystem and is kept for trajectory continuity).
type simBenchResult struct {
	Workload string `json:"workload"`
	Model    string `json:"model"`
	Procs    int    `json:"procs"`
	// Scale is the procs-axis-aware scaling label ("P32", "P256", ...):
	// trajectory tooling that keys rows by (workload, model) predates
	// the P ∈ {256, 1024} scaling points, and without the label those
	// deep rows would collide with the canonical P=32 rows of the same
	// workload. Always computed via simScaleLabel, never hand-written.
	Scale         string  `json:"scale,omitempty"`
	SimOpsPerSec  float64 `json:"sim_ops_per_sec"`
	EventsPerSec  float64 `json:"events_per_sec"`
	InlineOpsFrac float64 `json:"inline_ops_frac"` // fraction of ops retired on the fast path
}

// simScaleLabel renders the procs-axis scaling label for one snapshot
// row, making (workload, model, scale) a collision-free row key across
// the whole P axis.
func simScaleLabel(procs int) string {
	return fmt.Sprintf("P%d", procs)
}

// simBenchSnapshot is one dated measurement of the whole battery.
type simBenchSnapshot struct {
	Date    string           `json:"date"`
	Label   string           `json:"label,omitempty"`
	Quick   bool             `json:"quick"`
	Results []simBenchResult `json:"results"`
}

// simBenchFile is the simulator-throughput trajectory: one snapshot per
// engine-improvement milestone, so the host-efficiency history of the
// event engine and machine hot path reads directly from the file.
// Legacy single-snapshot files (top-level "results") are converted to a
// one-entry trajectory on load.
type simBenchFile struct {
	Experiment string             `json:"experiment"`
	Snapshots  []simBenchSnapshot `json:"snapshots"`

	// Legacy single-snapshot fields, for reading files written before
	// the trajectory format.
	Quick   bool             `json:"quick,omitempty"`
	Results []simBenchResult `json:"results,omitempty"`
}

// loadSimBench reads an existing trajectory file, converting the legacy
// single-snapshot layout. A missing file yields an empty trajectory.
func loadSimBench(path string) (simBenchFile, error) {
	var f simBenchFile
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return f, nil
	}
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("simjson: %s: %w", path, err)
	}
	if len(f.Snapshots) == 0 && len(f.Results) > 0 {
		f.Snapshots = []simBenchSnapshot{{
			Label: "converted legacy snapshot", Quick: f.Quick, Results: f.Results,
		}}
	}
	f.Quick = false
	f.Results = nil
	return f, nil
}

// mergeSimSnapshot appends snap to the trajectory. A (date, label)
// pair identifies one milestone measurement: re-running it in the same
// mode replaces the entry, while a quick/full mode mismatch is refused
// — silently appending a second point under the same label would make
// the trajectory ambiguous (two same-day points whose difference is
// sweep size, not engine progress). Distinct milestones measured the
// same day need distinct -simlabel values.
func mergeSimSnapshot(f simBenchFile, snap simBenchSnapshot) (simBenchFile, error) {
	if err := simSnapshotConflict(f, snap); err != nil {
		return f, err
	}
	for i, s := range f.Snapshots {
		if s.Date == snap.Date && s.Label == snap.Label {
			f.Snapshots[i] = snap
			return f, nil
		}
	}
	f.Snapshots = append(f.Snapshots, snap)
	return f, nil
}

// simSnapshotConflict reports the duplicate-(date, label) refusal
// without mutating the trajectory. writeSimBench runs it against the
// loaded file before measuring, so a conflicting invocation fails in
// milliseconds instead of after a full battery run.
func simSnapshotConflict(f simBenchFile, snap simBenchSnapshot) error {
	for _, s := range f.Snapshots {
		if s.Date == snap.Date && s.Label == snap.Label && s.Quick != snap.Quick {
			return fmt.Errorf("simjson: snapshot %q on %s already exists with quick=%v; re-run in the same mode or pick a distinct -simlabel",
				snap.Label, snap.Date, s.Quick)
		}
	}
	return nil
}

// writeSimBench measures host-side simulator throughput — simulated
// memory operations and engine events per host second — over a fixed
// battery of contended workloads, and merges the dated snapshot into
// the trajectory file at path (earlier snapshots are preserved, so the
// file accumulates the engine's perf history). The simulated results of
// these runs are deterministic; only the host throughput varies between
// machines.
func writeSimBench(path string, quick bool, label string) error {
	iters := 200
	reps := 20
	if quick {
		iters, reps = 40, 3
	}
	snap := simBenchSnapshot{
		Date:  time.Now().Format("2006-01-02"),
		Label: label,
		Quick: quick,
	}
	// Load the trajectory and refuse a duplicate (date, label) up
	// front, before the battery burns minutes of measurement.
	f, err := loadSimBench(path)
	if err != nil {
		return err
	}
	if err := simSnapshotConflict(f, snap); err != nil {
		return err
	}
	// The windows-on/off pairs measure spin-window batching directly:
	// same workload with windows on (default) and forced off, so the
	// trajectory file itself carries the speedup. The cluster storms
	// batch too — their pairs track windows whose sets mix two service
	// times against the per-event path on the hierarchical machine.
	// The deep P ∈ {256, 1024} rows are the scaling points: storms grow
	// with P, so those rows carry their own (smaller) iteration counts
	// to keep cell cost roughly flat, and their procs-axis scale labels
	// keep them from colliding with the canonical P=32 rows.
	battery := []struct {
		lock  string
		topo  topo.Topology
		procs int
		noWin bool
		iters int // 0 = battery default
	}{
		{"tas", topo.Bus, 8, false, 0},
		{"tas", topo.Bus, 32, false, 0},
		{"tas", topo.Bus, 32, true, 0},
		{"ttas", topo.Bus, 8, false, 0},
		{"tas-bo", topo.Bus, 8, false, 0},
		{"qsync", topo.Bus, 8, false, 0},
		{"qsync", topo.NUMA, 16, false, 0},
		{"tas", topo.Cluster, 32, false, 0},
		{"tas", topo.Cluster, 32, true, 0},
		{"qsync", topo.Cluster, 16, false, 0},
		// Robust primitives whose acquire waits poll: the lease lock's
		// CAS poll on the bus, qheal's ticket wait on NUMA.
		{"lease", topo.Bus, 32, false, 0},
		{"qheal", topo.NUMA, 32, false, 0},
		// ticket-bo's proportional-backoff poll on NUMA.
		{"ticket-bo", topo.NUMA, 32, false, 0},
		// Deep scaling points (deep event queues, multi-word window masks).
		{"tas", topo.NUMA, 256, false, 8},
		{"tas", topo.NUMA, 256, true, 8},
		{"tas", topo.Cluster, 256, false, 8},
		{"tas", topo.Cluster, 256, true, 8},
		{"tas", topo.Cluster, 1024, false, 2},
		{"tas", topo.Cluster, 1024, true, 2},
	}
	pool := new(machine.Pool)
	for _, bc := range battery {
		info, ok := simsync.LockByName(bc.lock)
		if !ok {
			return fmt.Errorf("simjson: unknown lock %q", bc.lock)
		}
		cellIters := iters
		if bc.iters > 0 {
			cellIters = bc.iters
		}
		var ops, events, inline uint64
		start := time.Now()
		for r := 0; r < reps; r++ {
			res, err := simsync.RunLockIn(pool,
				machine.Config{Procs: bc.procs, Topo: bc.topo, Seed: uint64(r + 1),
					SharedWords: 1 << 12, LocalWords: 1 << 8,
					NoSpinWindows: bc.noWin},
				info,
				simsync.LockOpts{Iters: cellIters, CS: 25, Think: 50, CheckMutex: true},
			)
			if err != nil {
				return fmt.Errorf("simjson: %s: %w", bc.lock, err)
			}
			st := res.Stats
			ops += st.Loads + st.Stores + st.RMWs
			events += st.Events
			inline += st.InlineOps
		}
		el := time.Since(start).Seconds()
		name := "lock/" + bc.lock
		if bc.noWin {
			name += "-nowin"
		}
		res := simBenchResult{
			Workload: name, Model: bc.topo.Name(), Procs: bc.procs,
			Scale:        simScaleLabel(bc.procs),
			SimOpsPerSec: float64(ops) / el,
			EventsPerSec: float64(events) / el,
		}
		if ops > 0 {
			res.InlineOpsFrac = float64(inline) / float64(ops)
		}
		snap.Results = append(snap.Results, res)
	}
	f.Experiment = "simulator hot-path throughput (host ops/sec, contended workloads)"
	if f, err = mergeSimSnapshot(f, snap); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// writeFileAtomic writes data to path via a temp file in the same
// directory plus a rename, so a crash (or ^C) mid-write never leaves a
// truncated snapshot behind — these JSON files are merged trajectories
// that accumulate history across runs, and a torn write would lose all
// of it on the next merge.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// benchResult is one line of the BENCH_sharded.json trajectory file.
type benchResult struct {
	Family    string  `json:"family"`
	Name      string  `json:"name"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// benchFile is the whole snapshot; future PRs diff these to track the
// perf trajectory of the sharded layer.
type benchFile struct {
	Experiment string        `json:"experiment"`
	Goroutines int           `json:"goroutines"`
	Quick      bool          `json:"quick"`
	Results    []benchResult `json:"results"`
}

// writeShardedBench measures real-runtime ops/sec for the hot-spot
// counters (central vs sharded) and the registered reader-writer locks
// under a read-heavy mix, and writes them as JSON. The -algos selection
// applies with the same lenient per-family semantics as the sweeps.
func writeShardedBench(path string, quick bool, algoList []string) error {
	gor := runtime.GOMAXPROCS(0)
	iters := 200000
	rwIters := 20000
	if quick {
		iters, rwIters = 20000, 2000
	}
	out := benchFile{
		Experiment: "sharded hot-spot and read-mostly throughput (real runtime)",
		Goroutines: gor,
		Quick:      quick,
	}

	// Names mirror the simulated counter registry (the real central
	// counter is one fetch&add word), so one -algos list addresses both.
	allCounters := []struct {
		name string
		c    workload.AddLoader
	}{
		{"ctr-fa", sharded.NewCentralCounter()},
		{"ctr-sharded", sharded.NewCounter(0)},
	}
	want := make(map[string]bool, len(algoList))
	for _, n := range algoList {
		want[n] = true
	}
	counters := allCounters[:0:0]
	for _, tc := range allCounters {
		if want[tc.name] {
			counters = append(counters, tc)
		}
	}
	if len(counters) == 0 {
		counters = allCounters
	}
	for _, tc := range counters {
		res, ok := workload.RunCounterHotspot(tc.c, workload.CounterOpts{
			Goroutines: gor, Iters: iters,
		})
		if !ok {
			return fmt.Errorf("counter %s lost updates", tc.name)
		}
		out.Results = append(out.Results, benchResult{
			Family: "counter", Name: tc.name, OpsPerSec: res.OpsPerSec,
		})
	}

	for _, info := range locks.RWRegistry.Filter(algoList) {
		res, ok := workload.RunReadMix(info.New(gor), workload.RWOpts{
			Goroutines: gor, Iters: rwIters, ReadFraction: 0.95, Work: 50,
		})
		if !ok {
			return fmt.Errorf("rwlock %s invariant broken", info.Name)
		}
		out.Results = append(out.Results, benchResult{
			Family: "rwlock", Name: info.Name, OpsPerSec: res.OpsPerSec,
		})
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}
