package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
)

// surveyIDs are the simulated experiments of the syncbench registry, in
// registry order: the registry minus the real-runtime F9-F12 and
// SAT1/SAT2, whose tables time the host. The list is fixed here rather
// than derived from the registry so that an experiment added later does
// not silently change the workload.
var surveyIDs = []string{"T1", "F1", "F3", "F5", "F6", "F7", "F8", "F13", "F14", "F15",
	"F16", "T2", "T3", "A1", "X1", "SC1", "FT1", "FT3", "L1-cluster"}

// paperIDs are the experiments that reproduce the paper's own
// evaluation: uncontended lock latency (T1), the bus and NUMA lock
// sweeps (F1-F4), backoff and critical-section sensitivity (F5, F6) and
// the barrier sweeps (F7, F8).
var paperIDs = []string{"T1", "F1", "F3", "F5", "F6", "F7", "F8"}

// hostTimeTables are survey tables rendered from host time; the output
// check skips them.
var hostTimeTables = map[string]bool{"SC2": true}

// experiments resolves experiment ids against the harness registry.
func experiments(ids []string) ([]harness.Experiment, error) {
	exps := make([]harness.Experiment, len(ids))
	for i, id := range ids {
		e, ok := harness.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("experiment %s is not in the harness registry", id)
		}
		exps[i] = e
	}
	return exps, nil
}

// battery is a workload of whole passes over simulated experiments
// through harness.Experiment.Run, the way syncbench runs them. A pass is
// one request; its table cells are the ops.
type battery struct {
	ids   []string
	quick bool          // syncbench's -quick sizes
	per   time.Duration // run time per pass, or per cycle at quick size
	tail  float64       // lat_tail_ms percentile within a cycle
}

// batteries are the survey-style workloads. Their pass counts follow
// from the run time alone, never from how fast the host is, so
// lat_p50_ms and lat_tail_ms are the same order statistics on every run.
var batteries = map[string]battery{
	// A pass took 13-21 s on a 2-core host, and a single pass per run
	// left a 7.5% quartile spread in ops_per_s over ten seeds.
	"survey": {surveyIDs, false, 20 * time.Second, 1},
	// A pass took 6.4-7.4 s.
	"paper": {paperIDs, false, 8 * time.Second, 1},
	// A pass took 0.33-0.72 s, so a 40-s run makes 5 cycles of 20
	// passes in 33-72 s, and a cycle's p90 has two passes beyond it.
	"quick": {surveyIDs, true, 8 * time.Second, 0.9},
}

// plan returns the number of passes a run of dur makes, at least two,
// and the passes per cycle: quickSeeds at quick size, else all of them.
func (bt battery) plan(dur time.Duration) (passes, cycle int) {
	if bt.quick {
		return max(1, int(dur/bt.per)) * quickSeeds, quickSeeds
	}
	n := max(2, int(dur/bt.per))
	return n, n
}

// tableDigest hashes a table's id, column headers and rendered cells.
// Title and note are prose and left out.
func tableDigest(t harness.Table) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", t.ID, strings.Join(t.Cols, "\x1f"))
	for _, row := range t.Rows {
		fmt.Fprintf(h, "%s\x1e", strings.Join(row, "\x1f"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cellCount is the number of data cells in a table (row labels excluded).
func cellCount(t harness.Table) int {
	n := 0
	for _, row := range t.Rows {
		n += len(row) - 1
	}
	return n
}

// surveyRun is the outcome of one survey measurement. A survey request
// is one pass: the battery a syncbench user waits for.
type surveyRun struct {
	passMs    []float64 // wall time per pass
	passCells []int64   // table cells per pass
	passCPU   []time.Duration
	cells     int64
	wall      time.Duration
	cpu       time.Duration
	gcFrac    float64
	expSec    map[string][]float64 // seconds per Experiment.Run, by first table id
	split     split
	attempted int64
	failed    int64
	problems  []string
}

// cycleFigures returns the end-to-end figures of a run whose passes
// form cycles of n: each the median over cycles of that cycle's cells
// per second, median pass, tail pass (the tail percentile of its passes)
// and CPU per cell. A quick cycle is one pass per seed, so a host stall
// that slows a few seconds of the run moves one cycle's figures, not the
// result; a full-size survey run is one cycle.
func (r *surveyRun) cycleFigures(n int, tail float64) (rate, p50, tailMs, cpuPerCell float64) {
	var rates, p50s, tails, cpus []float64
	for c := 0; c+n <= len(r.passMs); c += n {
		var ms float64
		var cells int64
		var cpu time.Duration
		for k := c; k < c+n; k++ {
			ms += r.passMs[k]
			cells += r.passCells[k]
			cpu += r.passCPU[k]
		}
		passes := slices.Clone(r.passMs[c : c+n])
		rates = append(rates, float64(cells)/(ms/1e3))
		p50s = append(p50s, median(passes))
		tails = append(tails, percentile(passes, tail))
		cpus = append(cpus, cpu.Seconds()*1e6/float64(cells))
	}
	return median(rates), median(p50s), median(tails), median(cpus)
}

// busyFrac is process CPU over wall time times GOMAXPROCS.
func (r *surveyRun) busyFrac() float64 {
	return r.cpu.Seconds() / (r.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// quickSeeds is the number of harness seeds a quick run's passes cycle
// through. At quick size the seed moves an experiment's simulated work:
// over five seeds FT3 took 83-172 ms and FT1 21-55 ms, and the median
// pass 443-524 ms, so a run on one seed measured its seed as much as
// the program.
const quickSeeds = 20

// passSeeds returns the harness seeds a run's passes cycle through: the
// benchmark seed itself at full size, where each experiment sweeps
// enough cells to even out its seed, and quickSeeds seeds derived from
// it at quick size.
func passSeeds(seed uint64, quick bool) []uint64 {
	if !quick {
		return []uint64{seed}
	}
	seeds := make([]uint64, quickSeeds)
	for i := range seeds {
		seeds[i] = deriveSeed(seed, i)
	}
	return seeds
}

// runSurvey runs passes whole passes over the survey experiments at full
// or quick size, pass k on harness seed seeds[k mod len(seeds)]. want,
// when non-nil, holds the table digests recorded for these seeds, by
// seed; later passes on a seed are also held to the first one's
// digests. With interleave set it traces every other experiment,
// alternating between passes, so each experiment runs both traced and
// untraced.
func runSurvey(exps []harness.Experiment, quick bool, seeds []uint64, passes int, want map[string]map[string]string, tr *tracer, interleave bool) *surveyRun {
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &surveyRun{expSec: map[string][]float64{}}
	root := tr.begin("perfbench", "survey", -1, 0)
	defer tr.end(root)
	fail := func(n int64, msg string) {
		r.failed += n
		if len(r.problems) < 10 {
			r.problems = append(r.problems, msg)
		}
	}
	first := map[string]string{}
	rt := newSampler()
	rt0, cpu0 := rt.read(), cpuSelf()
	start := time.Now()
	for pass := 0; pass < passes; pass++ {
		seed := strconv.FormatUint(seeds[pass%len(seeds)], 10)
		opts := harness.Options{Seed: seeds[pass%len(seeds)], Quick: quick}
		passStart, passCPU, passCells := time.Now(), cpuSelf(), r.cells
		produced := map[string]bool{}
		for i, e := range exps {
			id := e.IDs[0]
			etr := tr
			if interleave && (pass+i)%2 == 0 {
				etr = nil
			}
			sp := etr.begin("harness", "harness.Experiment.Run", root, int64(pass*len(exps)+i))
			t0 := time.Now()
			tables, err := e.Run(opts)
			d := time.Since(t0)
			etr.end(sp)
			r.expSec[id] = append(r.expSec[id], d.Seconds())
			if err != nil {
				r.attempted++
				fail(1, fmt.Sprintf("%s: %v", id, err))
				continue
			}
			var cells int64
			for _, t := range tables {
				n := int64(cellCount(t))
				cells += n
				r.attempted += n
				produced[t.ID] = true
				for _, row := range t.Rows {
					for _, c := range row[1:] {
						if strings.HasPrefix(c, "!") {
							fail(1, fmt.Sprintf("%s: failed cell %q", t.ID, c))
						}
					}
				}
				if hostTimeTables[t.ID] {
					continue
				}
				got := tableDigest(t)
				ref, seen := first[seed+"/"+t.ID]
				if !seen {
					ref = got
					if want != nil {
						if ref = want[seed][t.ID]; ref == "" {
							fail(n, fmt.Sprintf("%s: no digest recorded for seed %s", t.ID, seed))
							ref = got
						}
					}
					first[seed+"/"+t.ID] = ref
				}
				if got != ref {
					fail(n, fmt.Sprintf("%s seed %s: digest %.12s, want %.12s", t.ID, seed, got, ref))
				}
			}
			r.cells += cells
			r.split.add(etr != nil, float64(cells), d)
		}
		for _, e := range exps {
			for _, id := range e.IDs {
				if want[seed][id] != "" && !produced[id] {
					r.attempted++
					fail(1, fmt.Sprintf("%s seed %s: table not produced", id, seed))
				}
			}
		}
		r.passMs = append(r.passMs, msSince(passStart))
		r.passCPU = append(r.passCPU, cpuSelf()-passCPU)
		r.passCells = append(r.passCells, r.cells-passCells)
	}
	r.wall = time.Since(start)
	r.cpu = cpuSelf() - cpu0
	r.gcFrac = gcFrac(rt0, rt.read())
	return r
}

// surveySetup times, reps times, a fresh cmd/syncbench process listing
// its experiments (the program's own start-up up to choosing what to
// run), checks that the listing names every survey experiment, and
// returns the median in seconds.
func surveySetup(syncbench string, reps int) (float64, error) {
	times := make([]float64, reps)
	for i := range times {
		var out bytes.Buffer
		cmd := exec.Command(syncbench, "-list")
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("syncbench -list: %w", err)
		}
		times[i] = time.Since(start).Seconds()
		listed := map[string]bool{}
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				for _, id := range strings.Split(f[0], "+") {
					listed[id] = true
				}
			}
		}
		for _, id := range surveyIDs {
			if !listed[id] {
				return 0, fmt.Errorf("syncbench -list does not list experiment %s", id)
			}
		}
	}
	return median(times), nil
}
