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
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/harness"
	"repro/internal/registry"
	"repro/internal/topo"
)

func main() {
	os.Exit(run())
}

// run is main minus os.Exit, so the -cpuprofile/-memprofile defers
// flush on every exit path, including errors.
func run() int {
	var (
		list    = flag.Bool("list", false, "list experiments and exit")
		runIDs  = flag.String("run", "", "comma-separated table ids to regenerate (e.g. F2,T3)")
		all     = flag.Bool("all", false, "run every experiment")
		quick   = flag.Bool("quick", false, "small sweeps (seconds instead of minutes)")
		csvDir  = flag.String("csv", "", "directory to write one CSV per table")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		algos   = flag.String("algos", "", "comma-separated algorithm names to restrict sweeps to (per family; families with no match run in full)")
		topos   = flag.String("topo", "", "comma-separated topology names for the topology-axis experiments (X1/X2 and the per-topology battery); see -list")
		faults  = flag.String("faults", "", "comma-separated fault-level names for the fault-axis experiments (FT1/FT2 and FT3/FT4); see -list")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		verbose = flag.Bool("v", false, "print per-sweep-point progress")
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
	if len(ids) == 0 && !*all {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -all, -run <ids>, or -list")
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
