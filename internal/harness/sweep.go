package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/locks"
	"repro/internal/machine"
	"repro/internal/registry"
	"repro/internal/simsync"
	"repro/internal/topo"
)

// errSkipCell is returned by a measure function for a cell that cannot
// run on this axis point — e.g. a bus-machine cell above the snooping
// protocol's 64-processor sharer-bitmask ceiling in a sweep whose P
// axis is shared across topologies. The sweep records the cell as
// skipped (rendered as skippedCell) instead of failing the run, so
// `-topo=` scaling sweeps at P=256 complete cleanly across the whole
// registry. Contrast clipProcs, which trims the axis itself when the
// axis belongs to a single topology.
var errSkipCell = errors.New("harness: cell skipped (axis point above topology ceiling)")

// skippedCell marks a skipped cell in rendered tables and CSVs.
const skippedCell = "-"

// errCellTimeout is returned by a watchdogged cell whose measurement
// exceeded its wall-clock budget. The sweep records the cell as failed
// ("!timeout") and the battery keeps going: a wedged real-runtime cell
// (a livelocked lock, a semaphore that never sheds) must cost one
// table cell, not the whole run. The wedged goroutine itself cannot be
// killed and is abandoned — which is why the watchdog hands it a
// private machine pool (see watchdogCell) and why it is only wired to
// real-runtime sweeps, whose cells hold no simulator state.
var errCellTimeout = errors.New("harness: cell watchdog expired")

// realCellTimeout is the wall-clock budget for one real-runtime sweep
// cell. The slowest legitimate cells (full-size F11 at high goroutine
// counts, SAT cells with their fixed-duration load runs) finish in a
// few seconds; a cell still running after a minute is wedged.
const realCellTimeout = 60 * time.Second

// watchdogCell runs fn under a wall-clock watchdog, returning
// errCellTimeout if it does not finish within timeout (fn keeps
// running on its abandoned goroutine; its eventual result is
// discarded). A panic inside fn is re-raised on the caller's
// goroutine, so measureSafe's panic-to-failed-cell downgrade still
// applies. timeout <= 0 disables the watchdog.
func watchdogCell(timeout time.Duration, fn func() ([]float64, error)) ([]float64, error) {
	if timeout <= 0 {
		return fn()
	}
	type cellOut struct {
		vals   []float64
		err    error
		panicv any
	}
	done := make(chan cellOut, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- cellOut{panicv: r}
			}
		}()
		vals, err := fn()
		done <- cellOut{vals: vals, err: err}
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out := <-done:
		if out.panicv != nil {
			panic(out.panicv)
		}
		return out.vals, out.err
	case <-t.C:
		return nil, errCellTimeout
	}
}

// runMatrixTimeout is runMatrix for real-runtime sweeps (sequential
// cells, host-time measurements) with a per-cell wall-clock watchdog:
// a cell exceeding timeout renders as "!timeout" instead of hanging
// the battery. Each cell gets a private machine pool, since on timeout
// the measuring goroutine — and anything handed to it — is abandoned.
func runMatrixTimeout[A any](o Options, timeout time.Duration, algos []A, nameOf func(A) string,
	axisLabel string, axis []string, metrics []metricSpec,
	measure func(ai int, algo A, pool *machine.Pool) ([]float64, error)) ([]Table, error) {

	return runMatrix(o, false, algos, nameOf, axisLabel, axis, metrics,
		func(ai int, algo A, _ *machine.Pool) ([]float64, error) {
			return watchdogCell(timeout, func() ([]float64, error) {
				return measure(ai, algo, new(machine.Pool))
			})
		})
}

// failedCell renders a cell whose measurement panicked: a bang plus the
// truncated panic reason, so the table both flags the failure and gives
// enough of the message to find it.
func failedCell(reason string) string {
	reason = strings.Join(strings.Fields(reason), " ")
	const max = 24
	if len(reason) > max {
		reason = reason[:max-1] + "…"
	}
	return "!" + reason
}

// This file is the backend-agnostic sweep engine shared by every
// per-family experiment file (sweep_locks.go, sweep_barriers.go,
// sweep_rw.go, sweep_sem.go, sweep_misc.go, ...): algorithm selection
// comes from the registry sets (filtered by Options.Algos), the cell
// driver below runs every simulated sweep's (row × column) cells, the
// matrix driver on top of it turns (axis point × algorithm × metric)
// measurements into tables, and Table handles emission. Adding a
// backend to a registry therefore adds a column to every sweep of its
// family with no harness changes.

// algosFor applies the -algos selection to one family's registry. The
// filter is per family and lenient: names that belong to other families
// are ignored, and a selection that matches nothing in this family
// leaves the family complete (so `-algos=tas,qsync -all` narrows the
// lock sweeps without emptying the barrier sweeps).
func algosFor[A any](o Options, set *registry.Set[A]) []A {
	return set.Filter(o.Algos)
}

// ValidateAlgos rejects names that belong to no family the harness
// sweeps — a name unknown everywhere is certainly a typo, and lenient
// per-family filtering would otherwise run a full unfiltered sweep.
func ValidateAlgos(names []string) error {
	if len(names) == 0 {
		return nil
	}
	known := map[string]bool{}
	collect := func(ns []string) {
		for _, n := range ns {
			known[n] = true
		}
	}
	collect(locks.Registry.Names())
	collect(locks.RWRegistry.Names())
	collect(simsync.LockSet.Names())
	collect(simsync.BarrierSet.Names())
	collect(simsync.RWLockSet.Names())
	collect(simsync.SemaphoreSet.Names())
	collect(simsync.CounterSet.Names())
	var unknown []string
	for _, n := range names {
		if !known[n] {
			unknown = append(unknown, n)
		}
	}
	if len(unknown) > 0 {
		all := make([]string, 0, len(known))
		for n := range known {
			all = append(all, n)
		}
		sort.Strings(all)
		return fmt.Errorf("unknown algorithm(s) %s (known: %s)",
			strings.Join(unknown, ", "), strings.Join(all, " "))
	}
	return nil
}

// metricSpec names one table a sweep emits.
type metricSpec struct {
	ID    string
	Title string
	Note  string
}

// layout places one of the family sweeps that a canonical figure and
// the per-topology battery share (rwSweep for F13 and R1-<topology>,
// semSweep for F14 and S1-, counterSweep for F16 and C1-): the table's
// id, title and note, the machine the sweep runs on, and whether the
// table adds the figure's own columns, which each sweep names.
type layout struct {
	id, title, note string
	tp              topo.Topology
	figure          bool
}

// cells is the cell driver every sweep runs through: it measures a
// rows × len(cols) matrix of cells and returns their results row-major,
// cell (r, c) at index r*len(cols)+c. cols names each column on o's
// column clock, which charges every cell's host time to its column; a
// name may repeat, and its columns then share one footer entry. measure
// draws any machine it needs from the per-worker pool it is handed.
//
// Simulated sweeps run their cells concurrently across host cores —
// each cell resets its own deterministic Machine from its worker's
// pool, so the numbers are bit-identical to a sequential unpooled run
// and only wall-clock (and allocation) changes. Rows are the sweep's
// axis, and P and critical-section axes list their smallest point
// first, so a parallel sweep, dispatched from the last cell down,
// starts on its costliest row: cheap cells fill the tail, and each
// worker's machine is sized by its first cell (see forEachCell).
// Real-runtime sweeps and SC1 pass parallel=false: their cells run in
// row order, because they time the host and would perturb each other.
// The first cell error fails the sweep.
func cells[R any](o Options, parallel bool, rows int, cols []string,
	measure func(r, c int, pool *machine.Pool) (R, error)) ([]R, error) {

	results := make([]R, rows*len(cols))
	err := o.forEachCell(parallel, cols, len(results), func(i int, pool *machine.Pool) (err error) {
		results[i], err = measure(i/len(cols), i%len(cols), pool)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runMatrix is the shared table driver: one row per axis value, one
// column per algorithm, one emitted table per metric. measure returns
// one value per metric for a single (axis point, algorithm) cell; the
// cells run through cells, and the tables are assembled in canonical
// (axis-major) order afterwards.
//
// A cell whose measurement panics renders as a failed cell: one broken
// algorithm marks its own cells and the rest of the battery still runs.
// A cell returning errSkipCell renders as skipped and one returning
// errCellTimeout as "!timeout"; any other measurement error stays fatal,
// since it means the sweep itself is wrong, not one cell.
func runMatrix[A any](o Options, parallel bool, algos []A, nameOf func(A) string, axisLabel string,
	axis []string, metrics []metricSpec,
	measure func(ai int, algo A, pool *machine.Pool) ([]float64, error)) ([]Table, error) {

	names := make([]string, len(algos))
	for aj, a := range algos {
		names[aj] = nameOf(a)
	}
	// A cell's outcome is its values, or nil values for a skipped cell,
	// or the reason it failed.
	type outcome struct {
		vals   []float64
		failed string
	}
	results, err := cells(o, parallel, len(axis), names, func(ai, aj int, pool *machine.Pool) (out outcome, err error) {
		defer func() {
			if r := recover(); r != nil {
				out, err = outcome{failed: fmt.Sprintf("%v", r)}, nil
			}
		}()
		vals, err := measure(ai, algos[aj], pool)
		switch {
		case errors.Is(err, errSkipCell):
			return outcome{}, nil
		case errors.Is(err, errCellTimeout):
			return outcome{failed: "timeout"}, nil
		}
		return outcome{vals: vals}, err
	})
	if err != nil {
		return nil, err
	}

	tables := make([]Table, len(metrics))
	for mi, ms := range metrics {
		tables[mi] = Table{ID: ms.ID, Title: ms.Title, Note: ms.Note, Cols: append([]string{axisLabel}, names...)}
		for ai, x := range axis {
			row := []string{x}
			for _, out := range results[ai*len(algos) : (ai+1)*len(algos)] {
				switch {
				case out.failed != "":
					row = append(row, failedCell(out.failed))
				case out.vals == nil:
					row = append(row, skippedCell)
				default:
					row = append(row, Fmt(out.vals[mi]))
				}
			}
			tables[mi].Rows = append(tables[mi].Rows, row)
		}
	}
	return tables, nil
}

// forEachCell runs fn for every cell index in [0, total) and returns
// the first error. With parallel set, cells run concurrently across
// host cores (each must write only its own result slot); remaining
// cells are skipped once any cell fails, so an early error does not
// cost a full sweep's wall-clock. With parallel unset, cells run
// sequentially in ascending index order on the calling goroutine —
// the mode for real-runtime measurements, whose cells time the host.
//
// Each worker owns a machine.Pool handed to every cell it runs, so a
// worker's cells reuse one simulated machine (reset per cell) instead
// of allocating a machine each. Pools are per-worker precisely because
// they are not concurrency-safe.
//
// A parallel call hands out cells from total-1 down to 0, on one
// worker or several. Processor-count and critical-section axes list
// their smallest point first, so a sweep over one ends in its
// costliest cells. Starting there lets the cheap cells fill the tail
// instead of one worker finishing the largest cell while the others
// idle, and sizes each worker's pooled machine by its first cell, so
// Reset does not regrow the memory arrays at every larger axis point.
//
// A panic escaping fn is recovered and returned as that cell's error: a
// panic on a bare worker goroutine would kill the whole process, and no
// single sweep cell is worth the battery. (runMatrix recovers measure
// panics one level earlier and downgrades them to failed *cells*; this
// recovery is what fails a bespoke sweep whose cell panics.)
//
// A sweep's cells cycle through its columns: cell i belongs to column
// names[i%len(names)]. forEachCell lists the columns on o's column
// clock before any cell runs and charges each cell's host time to its
// column, which is what puts every sweep in the -v footer.
func (o Options) forEachCell(parallel bool, names []string, total int, fn func(i int, pool *machine.Pool) error) error {
	clock := o.clock()
	clock.columns(names...)
	call := func(i int, pool *machine.Pool) (err error) {
		defer clock.cell(names[i%len(names)])()
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("harness: sweep cell %d panicked: %v", i, r)
			}
		}()
		return fn(i, pool)
	}
	var (
		firstErr error
		errMu    sync.Mutex
		failed   atomic.Bool
	)
	record := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	workers := 1
	if parallel {
		workers = runtime.GOMAXPROCS(0)
		if workers > total {
			workers = total
		}
	}
	if workers <= 1 {
		pool := new(machine.Pool)
		for i := 0; i < total; i++ {
			cell := i
			if parallel {
				cell = total - 1 - i
			}
			if err := call(cell, pool); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64 // counts down: each claim takes next-1
		wg   sync.WaitGroup
	)
	next.Store(int64(total))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := new(machine.Pool)
			for !failed.Load() {
				cell := int(next.Add(-1))
				if cell < 0 {
					return
				}
				if err := call(cell, pool); err != nil {
					record(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// intAxis renders an integer axis (processor or goroutine counts) as
// row labels.
func intAxis(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = Fmt(float64(x))
	}
	return out
}

// Sweep sizes. Quick mode is for tests and smoke runs; full mode
// matches the numbers recorded in EXPERIMENTS.md.
func (o Options) busProcs() []int {
	if o.Quick {
		return []int{2, 4, 8}
	}
	return []int{1, 2, 4, 8, 16, 24, 32}
}

func (o Options) numaProcs() []int {
	if o.Quick {
		return []int{2, 4, 8}
	}
	return []int{1, 2, 4, 8, 16, 32, 48, 64}
}

func (o Options) lockIters() int {
	if o.Quick {
		return 25
	}
	return 80
}

func (o Options) episodes() int {
	if o.Quick {
		return 8
	}
	return 25
}

// Standard simulated lock workload: short critical section, a little
// think time (the era's "small delay" loop).
func simLockOpts(iters int) simsync.LockOpts {
	return simsync.LockOpts{Iters: iters, CS: 25, Think: 50, CheckMutex: true}
}

// rwSweepSize is the simulated reader-writer sweep's size. rwSweep runs
// it, and its callers name the processor count in their titles.
func (o Options) rwSweepSize() (procs, iters int) {
	if o.Quick {
		return 8, 20
	}
	return 16, 60
}

// clipProcs drops axis points above a topology's processor ceiling
// (max <= 0 means unlimited).
func clipProcs(procsList []int, max int) []int {
	if max <= 0 {
		return procsList
	}
	var out []int
	for _, p := range procsList {
		if p <= max {
			out = append(out, p)
		}
	}
	return out
}
