// Command perfbench is the repository's benchmark. Each run measures one
// workload from outside, by timing calls into the public functions of
// the harness, simsync, machine, sim, sharded, stats and load packages
// and into the cmd/ratelimiter binary, checks the outputs, and prints
// its metrics with their units, ending with one JSON line:
//
//	bash perfbench/run.sh --workload storm --seed 1 --seconds 40 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	survey   every simulated syncbench experiment at full size through
//	         harness.Experiment.Run, GOMAXPROCS=nproc
//	paper    the experiments that reproduce the paper's evaluation, the
//	         same way
//	quick    the survey's experiments at syncbench's -quick size, many
//	         passes over seeds derived from the seed
//	storm    the contended tas cells of BENCH_sim, one at a time through
//	         simsync.RunLockIn on a warm machine.Pool, GOMAXPROCS=1
//	service  cmd/ratelimiter as a child process on loopback, driven by
//	         load.RunClosed with nproc callers sending GET /work?ms=0
//
// BENCHMARK.json lists survey and paper only. On a 2-core VM the storm's
// quartile spread over ten seeds reached 26% of the median on
// cpu_us_per_op, and its medians moved 24-30% between two ten-seed sets
// of the same code; the service's spread reached 24-29% on ops_per_s,
// both latencies and cpu_us_per_op. Both are past the largest bound a
// metric may have. The quick workload fails on some seeds: at quick
// size FT3's qheal-ft lock panics under the bus/R1 restart plan on about
// one harness seed in 240 (seed 7 derives one), and a listed workload
// must not fail. All three stay runnable; the storm and service
// per-layer metrics come from the legs of every traced run.
//
// With --trace 0 the run prints the end-to-end metrics. With --trace 1
// it prints every per-layer metric instead: it measures the named
// workload with every other unit of work traced (the untraced over the
// traced throughput, minus one, is the tracing overhead), runs short
// storm, survey and service legs and the layer legs with spans recorded
// around each call, prints each layer's self time and span count, and
// writes the spans to the -bin directory.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// digestsJSON holds the output digests recorded for the default seed.
//
//go:embed digests.json
var digestsJSON []byte

// digests are the recorded outputs of one benchmark seed: a digest per
// storm cell, and per simulated survey table at full and at quick size
// by the harness seed of the pass (see passSeeds).
type digests struct {
	Seed   uint64                       `json:"seed"`
	Storm  map[string]string            `json:"storm"`
	Survey map[string]map[string]string `json:"survey"`
	Quick  map[string]map[string]string `json:"quick"`
}

func loadDigests() (digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return d, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// forSeed returns the digests recorded for seed, or nil maps when none
// were recorded for it.
func (d digests) forSeed(seed uint64) digests {
	if seed != d.Seed {
		return digests{Seed: seed}
	}
	return d
}

// surveyDigests returns the survey digests of one size.
func (d digests) surveyDigests(quick bool) map[string]map[string]string {
	if quick {
		return d.Quick
	}
	return d.Survey
}

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, on every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics of a traced run.
func perLayer() []metricDef {
	var d []metricDef
	for _, m := range []metricDef{
		{"machine.simops_per_s", "1/s"},
		{"machine.window_frac", "ratio"},
		{"machine.events_per_op", "ratio"},
		{"machine.inline_frac", "ratio"},
		{"machine.dispatch_frac", "ratio"},
		{"machine.allocs_per_cell", "count"},
		{"machine.reset_ms", "ms"},
	} {
		for _, c := range stormCells {
			d = append(d, metricDef{m.name + "." + c.label, m.unit})
		}
	}
	d = append(d, metricDef{"runtime.gc_cpu_frac.storm", "ratio"}, metricDef{"runtime.gc_cpu_frac.survey", "ratio"})
	for _, n := range enginePopPopulations {
		d = append(d, metricDef{"sim.pop_ns." + strconv.Itoa(n), "ns"})
	}
	for _, id := range surveyIDs {
		d = append(d, metricDef{"harness.exp_s." + id, "s"})
	}
	return append(d,
		metricDef{"harness.busy_frac", "ratio"},
		metricDef{"ratelimiter.server_p50_ms", "ms"},
		metricDef{"ratelimiter.server_p99_ms", "ms"},
		metricDef{"sharded.gate.admitted", "count"},
		metricDef{"http.overhead_p50_ms", "ms"},
		metricDef{"load.client_cpu_us_per_op", "us"},
		metricDef{"sharded.gate_ns_per_op", "ns"},
		metricDef{"stats.hist_record_ns", "ns"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}

// knownWorkload reports whether -workload names a workload.
func knownWorkload(w string) bool {
	_, ok := batteries[w]
	return ok || w == "storm" || w == "service"
}

// Set-up repetitions per run; each workload reports the median.
const (
	stormSetupReps   = 31
	surveySetupReps  = 101
	serviceSetupReps = 15
)

// bench is one invocation.
type bench struct {
	workload string
	seed     uint64
	dur      time.Duration
	bin      string // directory with the ratelimiter and syncbench binaries; trace output
	nproc    int
	want     digests // recorded for seed; nil maps when none were
	out      io.Writer

	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func (b *bench) printf(format string, args ...any) { fmt.Fprintf(b.out, format, args...) }

// tally adds one measurement's counts to the run's.
func (b *bench) tally(attempted, failed int64, problems []string) {
	b.attempted += attempted
	b.failed += failed
	b.problems = append(b.problems, problems...)
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: survey, paper, quick, storm or service")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 40, "how long one run measures")
	traced := fs.Int("trace", 0, "0: untraced run printing the end-to-end metrics; 1: traced run printing the per-layer metrics")
	bin := fs.String("bin", ".bench_build", "directory holding the built ratelimiter and syncbench binaries; the traced run writes its spans there")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case !knownWorkload(*workload):
		fmt.Fprintf(os.Stderr, "perfbench: -workload must be survey, paper, quick, storm or service, not %q\n", *workload)
		return 2
	case *seconds < 1:
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	want, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		bin: *bin, nproc: runtime.NumCPU(), want: want.forSeed(*seed), out: stdout,
		metrics: map[string]float64{},
	}
	b.printf("perfbench workload=%s seed=%d seconds=%d trace=%d go=%s nproc=%d\n",
		b.workload, b.seed, *seconds, *traced, runtime.Version(), b.nproc)
	b.printf("drift_probe_ms before=%.3f (pure-Go loop; a diagnostic, never used to scale a metric)\n", driftProbe())
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer()
		err = b.traced()
	} else {
		err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.printf("drift_probe_ms after=%.3f\n", driftProbe())
	return b.report(defs)
}

// report prints the metrics named by defs, the failure count and the
// result line.
func (b *bench) report(defs []metricDef) int {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		res.Metrics[d.name] = metric{v, d.unit}
		b.printf("%-38s %14.6g %s\n", d.name, v, d.unit)
	}
	if b.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	res.Correct = b.failed == 0
	b.printf("%-38s %14.6g ratio (%d failed of %d attempted)\n", "fail_frac",
		float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	for _, p := range b.problems {
		b.printf("problem: %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.printf("%s\n", line)
	return 0
}

// checkNote says which reference the output check used.
func (b *bench) checkNote(recorded bool) string {
	if recorded {
		return fmt.Sprintf("outputs checked against the digests recorded for seed %d", b.seed)
	}
	return fmt.Sprintf("no digests recorded for seed %d: outputs checked for consistency across repeats", b.seed)
}

func (b *bench) untraced() error {
	switch b.workload {
	case "storm":
		return b.stormE2E()
	case "service":
		return b.serviceE2E()
	default:
		return b.batteryE2E(batteries[b.workload])
	}
}

func (b *bench) stormE2E() error {
	setup, pool, err := stormSetup(b.seed, stormSetupReps, nil)
	if err != nil {
		return err
	}
	want := b.want.Storm
	r := runStorm(pool, b.seed, b.dur, stormMinRounds, want, nil, false)
	b.tally(r.attempted, r.failed, r.problems)
	n := len(r.lat)
	b.printf("conditions gomaxprocs=1 cells=%s rounds=%d ops_per_s and cpu_us_per_op are medians over rounds; lat_tail=p%g of %d RunLockIn calls (%d beyond it)\n",
		stormCellList(), len(r.rate), 100*stormTail, n, n-int(math.Ceil(stormTail*float64(n))))
	b.printf("check %s\n", b.checkNote(want != nil))
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	m := b.metrics
	m["ops_per_s"] = median(r.rate)
	m["lat_p50_ms"] = median(r.lat)
	m["lat_tail_ms"] = percentile(r.lat, stormTail)
	m["cpu_us_per_op"] = median(r.cpuPerOp)
	m["peak_rss_mb"] = rss
	m["setup_s"] = setup
	return nil
}

// stormCellList renders the storm cells with their iteration counts and
// machine seeds' derivation.
func stormCellList() string {
	parts := make([]string, len(stormCells))
	for i, c := range stormCells {
		parts[i] = fmt.Sprintf("%s:%dx%d", c.label, c.perRound, c.iters)
	}
	return strings.Join(parts, ",") + " (calls per round x iterations; machine seeds derive from the seed)"
}

func (b *bench) batteryE2E(bt battery) error {
	exps, err := experiments(bt.ids)
	if err != nil {
		return err
	}
	setup, err := surveySetup(filepath.Join(b.bin, "syncbench"), surveySetupReps)
	if err != nil {
		return err
	}
	want := b.want.surveyDigests(bt.quick)
	passes, cycle := bt.plan(b.dur)
	seeds := passSeeds(b.seed, bt.quick)
	r := runSurvey(exps, bt.quick, seeds, passes, want, nil, false)
	b.tally(r.attempted, r.failed, r.problems)
	b.printf("conditions gomaxprocs=%d experiments=%s quick=%t cells=%d request=one pass; passes=%d harness_seeds=%d (the seed at full size, derived from it at quick size); metrics are medians over %d cycles of %d passes; lat_tail=p%g of a cycle (%d beyond it)\n",
		runtime.GOMAXPROCS(0), strings.Join(bt.ids, ","), bt.quick, r.cells, passes, len(seeds), passes/cycle, cycle, 100*bt.tail, cycle-int(math.Ceil(bt.tail*float64(cycle))))
	b.printf("check %s (host-time table SC2 excluded)\n", b.checkNote(want != nil))
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	m := b.metrics
	m["ops_per_s"], m["lat_p50_ms"], m["lat_tail_ms"], m["cpu_us_per_op"] = r.cycleFigures(cycle, bt.tail)
	m["peak_rss_mb"] = rss
	m["setup_s"] = setup
	return nil
}

func (b *bench) serviceE2E() error {
	setup, srv, err := serviceSetup(filepath.Join(b.bin, "ratelimiter"), serviceSetupReps)
	if err != nil {
		return err
	}
	defer srv.stop()
	warm, r, err := measureService(srv, b.nproc, b.dur, b.seed, nil, false)
	if err != nil {
		return err
	}
	b.tally(warm.attempted+r.attempted, warm.failed+r.failed, append(warm.problems, r.problems...))
	sz, err := srv.statz()
	if err != nil {
		return err
	}
	if p := checkStatz(sz, warm.ok+r.ok); p != "" {
		b.tally(0, 1, []string{p})
	}
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		b.tally(1, 1, []string{"ratelimiter exit: " + err.Error()})
	}
	n := len(r.lat) / len(r.rate)
	b.printf("conditions gomaxprocs=%d callers=%d conns<=%d request=\"GET /work?ms=0\" server=\"ratelimiter -addr 127.0.0.1:<free port>, other flags default\" metrics are medians over %d slices of %v; lat_tail=p%g of ~%d requests per slice (~%d beyond it)\n",
		runtime.GOMAXPROCS(0), b.nproc, b.nproc, len(r.rate), serviceSlice, 100*serviceTail, n, n-int(math.Ceil(serviceTail*float64(n))))
	b.printf("check every response a 200 with an \"ok \" body; the server's admitted count equals the client's 200 count\n")
	m := b.metrics
	m["ops_per_s"] = median(r.rate)
	m["lat_p50_ms"] = median(r.p50)
	m["lat_tail_ms"] = median(r.tail)
	m["cpu_us_per_op"] = median(r.serverCPU)
	m["peak_rss_mb"] = rss
	m["setup_s"] = setup
	return nil
}

// traced measures the named workload for the run time with every other
// unit of work traced (their throughput ratio is the tracing overhead),
// runs the storm, survey and service legs that workload is not, briefly,
// and the layer legs, all traced, and fills in every per-layer metric.
func (b *bench) traced() error {
	tr := newTracer()
	var overhead float64

	// Storm: two rounds as a leg.
	_, pool, err := stormSetup(b.seed, 1, tr)
	if err != nil {
		return err
	}
	var sr *stormRun
	if b.workload == "storm" {
		sr = runStorm(pool, b.seed, b.dur, stormMinRounds, b.want.Storm, tr, true)
		overhead = sr.split.overhead()
	} else {
		sr = runStorm(pool, b.seed, 0, 2, b.want.Storm, tr, false)
	}
	b.tally(sr.attempted, sr.failed, sr.problems)
	b.stormLayers(sr)

	// Survey: one pass as a leg.
	exps, err := experiments(surveyIDs)
	if err != nil {
		return err
	}
	var sv *surveyRun
	if b.workload == "survey" {
		passes, _ := batteries["survey"].plan(b.dur)
		sv = runSurvey(exps, false, passSeeds(b.seed, false), passes, b.want.Survey, tr, true)
		overhead = sv.split.overhead()
	} else {
		sv = runSurvey(exps, false, passSeeds(b.seed, false), 1, b.want.Survey, tr, false)
	}
	b.tally(sv.attempted, sv.failed, sv.problems)
	for id, secs := range sv.expSec {
		b.metrics["harness.exp_s."+id] = median(secs)
	}
	if bt, ok := batteries[b.workload]; ok && b.workload != "survey" {
		bexps, err := experiments(bt.ids)
		if err != nil {
			return err
		}
		passes, _ := bt.plan(b.dur)
		r := runSurvey(bexps, bt.quick, passSeeds(b.seed, bt.quick), passes, b.want.surveyDigests(bt.quick), tr, true)
		b.tally(r.attempted, r.failed, r.problems)
		overhead = r.split.overhead()
	}
	b.metrics["harness.busy_frac"] = sv.busyFrac()
	b.metrics["runtime.gc_cpu_frac.survey"] = sv.gcFrac

	// Service: two seconds as a leg.
	dur := 2 * time.Second
	if b.workload == "service" {
		dur = b.dur
	}
	r, err := b.serviceLayers(tr, dur)
	if err != nil {
		return err
	}
	if b.workload == "service" {
		overhead = r.split.overhead()
	}

	problems, err := layerLegs(b.seed, b.metrics, tr)
	if err != nil {
		return err
	}
	b.tally(2, int64(len(problems)), problems)
	b.metrics["trace.overhead_frac"] = overhead

	b.printf("trace spans=%d; self time per layer (span time not covered by child spans; perfbench's includes the untraced half of the measured workload):\n", len(tr.spans))
	tr.report(b.out)
	path := filepath.Join(b.bin, fmt.Sprintf("trace-%s-seed%d.jsonl", b.workload, b.seed))
	if err := tr.writeFile(path); err != nil {
		return err
	}
	b.printf("trace written to %s\n", path)
	return nil
}

func (b *bench) stormLayers(r *stormRun) {
	m := b.metrics
	for i, c := range stormCells {
		cr := r.cells[i]
		st := cr.stats
		ops := float64(simops(st))
		m["machine.simops_per_s."+c.label] = float64(cr.simops) / cr.busy.Seconds()
		m["machine.window_frac."+c.label] = float64(st.WindowOps) / float64(st.Events)
		m["machine.events_per_op."+c.label] = float64(st.Events) / ops
		m["machine.inline_frac."+c.label] = float64(st.InlineOps) / ops
		m["machine.dispatch_frac."+c.label] = float64(st.InlineDispatches) / float64(st.Events)
		m["machine.allocs_per_cell."+c.label] = median(cr.allocs)
	}
	m["runtime.gc_cpu_frac.storm"] = r.gcFrac
}

// serviceLayers starts the server, measures it for dur with every other
// request traced, and fills in the service's per-layer metrics.
func (b *bench) serviceLayers(tr *tracer, dur time.Duration) (*serviceRun, error) {
	_, srv, err := serviceSetup(filepath.Join(b.bin, "ratelimiter"), 1)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	warm, r, err := measureService(srv, b.nproc, dur, b.seed, tr, true)
	if err != nil {
		return nil, err
	}
	b.tally(warm.attempted+r.attempted, warm.failed+r.failed, append(warm.problems, r.problems...))
	sz, err := srv.statz()
	if err != nil {
		return nil, err
	}
	if p := checkStatz(sz, warm.ok+r.ok); p != "" {
		b.tally(0, 1, []string{p})
	}
	m := b.metrics
	m["ratelimiter.server_p50_ms"] = sz.P50Ms
	m["ratelimiter.server_p99_ms"] = sz.P99Ms
	m["sharded.gate.admitted"] = float64(sz.Admitted)
	// A shed or timed-out request gets a non-200 answer, which fails the
	// run, so on a passing run both counts are 0: they are printed, not
	// reported as metrics.
	b.printf("diagnostic sharded.gate.shed=%d sharded.gate.timed_out=%d\n", sz.Shed, sz.TimedOut)
	m["http.overhead_p50_ms"] = median(r.lat) - sz.P50Ms
	m["load.client_cpu_us_per_op"] = r.clientCPU.Seconds() * 1e6 / float64(r.ok)
	return r, nil
}
