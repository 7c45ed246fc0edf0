package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Options tune a harness run.
type Options struct {
	// Quick shrinks sweep sizes so the full suite finishes in seconds;
	// used by tests and smoke runs. Full mode matches EXPERIMENTS.md.
	Quick bool
	// Seed for all simulated sweeps (deterministic; default 1).
	Seed uint64
	// CSVDir, when non-empty, receives one <id>.csv per table.
	CSVDir string
	// Progress, when non-nil, receives one line per sweep point; under
	// RunIDs each experiment's lines end in a footer giving every sweep
	// column's summed cell host seconds.
	Progress io.Writer
	// Algos, when non-empty, restricts registry-driven sweeps to the
	// named algorithms (the -algos= flag). Applied per family and
	// leniently: names from other families are ignored, and a family
	// with no match runs in full.
	Algos []string
	// Topos, when non-empty, selects the topologies the topology-axis
	// experiments cover (the -topo= flag), resolved strictly against
	// topo.Registry. Empty defaults per experiment: the X1/X2 axis
	// sweeps every registered non-ideal topology, and the per-topology
	// battery covers the non-canonical ones (everything beyond bus and
	// numa, which have their own canonical tables).
	Topos []string
	// Faults, when non-empty, selects the named fault levels (the
	// -faults= flag) the fault-axis experiments sweep, resolved strictly
	// against FaultLevels. Empty defaults per experiment: FT1/FT2 ramp
	// the fail-stop levels, FT3/FT4 the crash-recovery ones. FT1/FT2
	// reject the restart-carrying levels (R1, R2) because they are the
	// fail-stop ramp; recovery is measured by FT3/FT4, which accept
	// every level.
	Faults []string
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// progressMu serializes progress lines from concurrently running sweep
// cells, wherever the sweep was entered from (RunIDs or a direct
// Experiment.Run call). Progress is low-rate, so one process-wide lock
// costs nothing.
var progressMu sync.Mutex

func (o Options) progressf(format string, args ...interface{}) {
	if o.Progress != nil {
		progressMu.Lock()
		defer progressMu.Unlock()
		fmt.Fprintf(o.Progress, format, args...)
	}
}

// colClock is the progress writer RunIDs hands each experiment: it
// passes progress lines through to the caller's writer and sums each
// sweep column's cell host time for the footer RunIDs prints after the
// experiment. Cells run concurrently, so a column's sum is the total
// of its cells' wall times, not a share of the experiment's.
type colClock struct {
	io.Writer
	mu    sync.Mutex
	order []string // columns in table order
	secs  map[string]float64
}

// clock returns the column clock riding on o's progress writer, or nil
// — which times nothing — when the run has none.
func (o Options) clock() *colClock {
	c, _ := o.Progress.(*colClock)
	return c
}

// columns lists a sweep's columns in table order before its cells run,
// so the footer names them in that order. A nil clock ignores it.
func (c *colClock) columns(names ...string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range names {
		if _, ok := c.secs[name]; !ok {
			c.order = append(c.order, name)
			c.secs[name] = 0
		}
	}
}

// cell starts timing one cell of a listed column; calling the result
// ends it. A nil clock times nothing.
func (c *colClock) cell(name string) func() {
	if c == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start).Seconds()
		c.mu.Lock()
		c.secs[name] += d
		c.mu.Unlock()
	}
}

// footer renders the one-line per-column summary, or "" when no
// column was timed.
func (c *colClock) footer() string {
	if len(c.order) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("-- host seconds per column:")
	for i, name := range c.order {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " %s %.3f", name, c.secs[name])
	}
	b.WriteByte('\n')
	return b.String()
}

// Experiment is one registry entry. An entry may regenerate several
// closely related tables (e.g. F1 and F2 come from the same sweep).
type Experiment struct {
	IDs   []string // table ids produced, e.g. ["F1","F2"]
	Title string
	Run   func(o Options) ([]Table, error)
}

// Registry returns all experiments in canonical order.
func Registry() []Experiment {
	return []Experiment{
		{IDs: []string{"T1"}, Title: "Uncontended lock latency (simulated cycles)", Run: runT1},
		{IDs: []string{"F1", "F2", "T4"}, Title: "Bus machine lock sweep: cycles, bus transactions, scaling exponents", Run: runBusLockSweep},
		{IDs: []string{"F3", "F4"}, Title: "NUMA machine lock sweep: cycles, remote references", Run: runNUMALockSweep},
		{IDs: []string{"F5"}, Title: "Backoff parameter sensitivity vs the mechanism", Run: runF5},
		{IDs: []string{"F6"}, Title: "Critical-section length crossover", Run: runF6},
		{IDs: []string{"F7"}, Title: "Barrier sweep, bus machine", Run: runF7},
		{IDs: []string{"F8"}, Title: "Barrier sweep, NUMA machine", Run: runF8},
		{IDs: []string{"F9", "F9-p50", "F9-p99", "F9-slow"}, Title: "Reader-writer throughput and latency percentiles vs read fraction (real runtime)", Run: runF9},
		{IDs: []string{"F10"}, Title: "Producer-consumer pipeline throughput (real runtime)", Run: runF10},
		{IDs: []string{"F11", "F11-p50", "F11-p99", "F11-slow"}, Title: "Real-runtime lock throughput and latency percentiles vs goroutines", Run: runF11},
		{IDs: []string{"F12"}, Title: "Spin vs spin-park under oversubscription (the futex story)", Run: runF12},
		{IDs: []string{"F13"}, Title: "Simulated reader-writer locks vs read fraction", Run: runF13},
		{IDs: []string{"F14"}, Title: "Simulated semaphores: bounded-buffer producer/consumer", Run: runF14},
		{IDs: []string{"F15"}, Title: "Hot-spot counter: fetch&add vs software combining", Run: runF15},
		{IDs: []string{"F16"}, Title: "Hot-spot counter at scale: sharded vs central", Run: runF16},
		{IDs: []string{"T2"}, Title: "Space cost per lock and per waiter", Run: runT2},
		{IDs: []string{"T3"}, Title: "Fairness: acquisition spread and FIFO inversions", Run: runT3},
		{IDs: []string{"A1"}, Title: "Ablation: machine timing-parameter sensitivity", Run: runA1},
		{IDs: []string{"X1", "X2"}, Title: "Lock sweep with machine topology as the matrix axis", Run: runTopoAxis},
		{IDs: []string{"SC1", "SC2"}, Title: "Scaling-law sweep: contended tas storm vs processor count across topologies", Run: runScalingSweep},
		{IDs: []string{"SAT1"}, Title: "Open-loop saturation: bare semaphore vs admission gate, tail latency vs offered rate", Run: runSAT1},
		{IDs: []string{"SAT2"}, Title: "Open-loop saturation with keyed pools: uniform vs hot-key mix", Run: runSAT2},
		{IDs: []string{"FT1", "FT2"}, Title: "Resilience under deterministic fault injection: outcomes and throughput vs fault level", Run: runFaultSweep},
		{IDs: []string{"FT3", "FT4"}, Title: "Crash recovery: lock and barrier availability, time-to-recovery, orphaned acquisitions under restart plans", Run: runRecoverySweep},
		{IDs: []string{"L1-cluster", "L2-cluster", "B1-cluster", "R1-cluster", "S1-cluster", "C1-cluster"},
			Title: "Full simulated battery per topology (default: every non-canonical registered topology; -topo selects)", Run: runTopoBattery},
	}
}

// IDList returns every table id in the registry, sorted.
func IDList() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.IDs...)
	}
	sort.Strings(ids)
	return ids
}

// Lookup finds the experiment producing table id (case-insensitive, so
// "f2" and "l1-CLUSTER" both resolve).
func Lookup(id string) (Experiment, bool) {
	id = strings.TrimSpace(id)
	for _, e := range Registry() {
		for _, eid := range e.IDs {
			if strings.EqualFold(eid, id) {
				return e, true
			}
		}
	}
	return Experiment{}, false
}

// RunIDs runs the experiments producing the requested table ids (all of
// them when ids is empty), renders tables to w, and optionally writes
// CSVs. Duplicate experiments (two ids from one sweep) run once.
func RunIDs(ids []string, o Options, w io.Writer) error {
	var exps []Experiment
	if len(ids) == 0 {
		exps = Registry()
	} else {
		seen := map[string]bool{}
		for _, id := range ids {
			e, ok := Lookup(id)
			if !ok {
				return fmt.Errorf("harness: unknown experiment %q (known: %s)", id, strings.Join(IDList(), " "))
			}
			key := strings.Join(e.IDs, "+")
			if !seen[key] {
				seen[key] = true
				exps = append(exps, e)
			}
		}
	}
	for _, e := range exps {
		o.progressf("== running %s: %s\n", strings.Join(e.IDs, "+"), e.Title)
		run := o
		var clock *colClock
		if o.Progress != nil {
			clock = &colClock{Writer: o.Progress, secs: map[string]float64{}}
			run.Progress = clock
		}
		tables, err := e.Run(run)
		if err != nil {
			return fmt.Errorf("harness: %s: %w", strings.Join(e.IDs, "+"), err)
		}
		if clock != nil {
			o.progressf("%s", clock.footer())
		}
		for i := range tables {
			tables[i].Render(w)
			if o.CSVDir != "" {
				if err := writeCSVFile(o.CSVDir, tables[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func writeCSVFile(dir string, t Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}
