package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/machine"
	"repro/internal/simsync"
	"repro/internal/topo"
)

// stormCell is one contended tas cell of the BENCH_sim battery.
type stormCell struct {
	label    string
	topo     topo.Topology
	procs    int
	iters    int
	perRound int // calls per round
}

// stormCells are the contended tas cells of BENCH_sim without their
// -nowin/-noinline twins, at BENCH_sim's iteration counts. The two P=256
// cells, whose calls cost about the same, run twice per round, so the
// median call falls about a third of the way into their joint spread and
// the p95 about two thirds into the cluster-P1024 calls. With the P=32
// cells doubled instead, the median fell in the slow tail of the bus-P32
// calls, which host noise stretches, and its quartile spread over ten
// seeds was 19%.
var stormCells = []stormCell{
	{"bus-P32", topo.Bus, 32, 200, 1},
	{"cluster-P32", topo.Cluster, 32, 200, 1},
	{"numa-P256", topo.NUMA, 256, 8, 2},
	{"cluster-P256", topo.Cluster, 256, 8, 2},
	{"cluster-P1024", topo.Cluster, 1024, 2, 1},
}

// stormTail is the storm's lat_tail_ms percentile, and stormMinRounds
// the round count (seven calls each) that leaves at least ten calls
// beyond it.
const (
	stormTail      = 0.95
	stormMinRounds = 29
)

// splitmix64 is the seed-derivation stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// deriveSeed derives the i-th input seed from the benchmark seed: the
// machine seed of storm cell i, or the harness seed of quick pass seed i.
func deriveSeed(seed uint64, i int) uint64 {
	return splitmix64(splitmix64(seed)+uint64(i)) | 1
}

func (c stormCell) config(seed uint64, i int) machine.Config {
	return machine.Config{Procs: c.procs, Topo: c.topo, Seed: deriveSeed(seed, i),
		SharedWords: 1 << 12, LocalWords: 1 << 8}
}

func (c stormCell) opts() simsync.LockOpts {
	return simsync.LockOpts{Iters: c.iters, CS: 25, Think: 50, CheckMutex: true}
}

func simops(st machine.Stats) uint64 { return st.Loads + st.Stores + st.RMWs }

// stormDigest hashes the simulated results of one cell: cycles, memory
// operations, interconnect traffic, per-processor stats and acquisitions
// per processor. The host-side counters (Events, InlineOps, WindowOps,
// InlineDispatches) are left out, so a faster engine that simulates the
// same machine still passes.
func stormDigest(res simsync.LockResult) string {
	st := res.Stats
	var buf []byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	put(uint64(st.Cycles), st.Loads, st.Stores, st.RMWs, st.BusTxns, st.RemoteRefs)
	put(uint64(len(st.PerProc)))
	for _, p := range st.PerProc {
		put(p.Loads, p.Stores, p.RMWs, p.BusTxns, p.RemoteRefs)
	}
	put(uint64(len(res.AcqPerProc)))
	put(res.AcqPerProc...)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// checkLock reports why a storm result is wrong, or "" when it is right:
// every processor made its acquisitions, and the result matches want
// (the recorded digest, or the cell's first result in this run).
func checkLock(c stormCell, res simsync.LockResult, want string) string {
	for pid, n := range res.AcqPerProc {
		if n != uint64(c.iters) {
			return fmt.Sprintf("%s: processor %d made %d acquisitions, want %d", c.label, pid, n, c.iters)
		}
	}
	if got := stormDigest(res); want != "" && got != want {
		return fmt.Sprintf("%s: digest %.12s, want %.12s", c.label, got, want)
	}
	return ""
}

// cellRun accumulates one cell's measured calls.
type cellRun struct {
	simops uint64
	busy   time.Duration
	stats  machine.Stats // host-side counts of one call; they repeat exactly
	allocs []float64     // heap objects allocated per call (traced runs)
}

// stormRun is the outcome of one storm measurement.
type stormRun struct {
	lat       []float64 // ms per measured RunLockIn call
	rate      []float64 // simulated memory operations per host second, per round
	cpuPerOp  []float64 // process CPU µs per simulated memory operation, per round
	gcFrac    float64
	cells     []cellRun
	split     split
	attempted int64
	failed    int64
	problems  []string
}

// stormSetup times a cold Pool.Get of every cell shape, reps times, and
// returns the median with a pool warmed by the last repetition.
func stormSetup(seed uint64, reps int, tr *tracer) (float64, *machine.Pool, error) {
	runtime.GOMAXPROCS(1)
	root := tr.begin("perfbench", "storm setup", -1, 0)
	defer tr.end(root)
	times := make([]float64, reps)
	var pool *machine.Pool
	for r := range times {
		runtime.GC()
		pool = new(machine.Pool)
		ms := make([]*machine.Machine, len(stormCells))
		start := time.Now()
		for i, c := range stormCells {
			sp := tr.begin("machine", "machine.Pool.Get", root, int64(i))
			m, err := pool.Get(c.config(seed, i))
			tr.end(sp)
			if err != nil {
				return 0, nil, fmt.Errorf("storm setup %s: %w", c.label, err)
			}
			ms[i] = m
		}
		times[r] = time.Since(start).Seconds()
		for _, m := range ms {
			pool.Put(m)
		}
	}
	return median(times), pool, nil
}

// runStorm runs the storm cells one at a time on pool, round after
// round, until dur has passed and at least minRounds rounds are done.
// An untimed first round sets each cell's reference result; want, when
// non-nil, holds the digests recorded for this seed. With interleave
// set, only odd rounds are traced.
func runStorm(pool *machine.Pool, seed uint64, dur time.Duration, minRounds int, want map[string]string, tr *tracer, interleave bool) *stormRun {
	runtime.GOMAXPROCS(1)
	lock, _ := simsync.LockByName("tas")
	r := &stormRun{cells: make([]cellRun, len(stormCells))}
	root := tr.begin("perfbench", "storm", -1, 0)
	defer tr.end(root)
	var req int64
	rt := newSampler()
	call := func(i int, tr *tracer) (simsync.LockResult, time.Duration, float64, error) {
		c := stormCells[i]
		sp := tr.begin("simsync", "simsync.RunLockIn", root, req)
		req++
		var a, b uint64
		if tr != nil {
			a = mallocs()
		}
		start := time.Now()
		res, err := simsync.RunLockIn(pool, c.config(seed, i), lock, c.opts())
		d := time.Since(start)
		if tr != nil {
			b = mallocs()
		}
		tr.end(sp)
		return res, d, float64(b - a), err
	}
	fail := func(msg string) {
		r.failed++
		if len(r.problems) < 10 {
			r.problems = append(r.problems, msg)
		}
	}

	ref := make([]string, len(stormCells))
	for i, c := range stormCells {
		r.attempted++
		res, _, _, err := call(i, tr)
		if err != nil {
			fail(fmt.Sprintf("%s: %v", c.label, err))
			continue
		}
		ref[i] = stormDigest(res)
		if want != nil {
			// Every later call is held to the recorded digest, not
			// only this one.
			if ref[i] = want[c.label]; ref[i] == "" {
				fail(c.label + ": no digest recorded for this seed")
			}
		}
		if msg := checkLock(c, res, ref[i]); msg != "" {
			fail(msg)
		}
		r.cells[i].stats = res.Stats
	}

	rt0 := rt.read()
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < dur; round++ {
		rtr := tr
		if interleave && round%2 == 0 {
			rtr = nil
		}
		var ops uint64
		roundStart, cpu0 := time.Now(), cpuSelf()
		for i, c := range stormCells {
			for k := 0; k < c.perRound; k++ {
				r.attempted++
				res, d, allocs, err := call(i, rtr)
				if err != nil {
					fail(fmt.Sprintf("%s: %v", c.label, err))
					continue
				}
				if msg := checkLock(c, res, ref[i]); msg != "" {
					fail(msg)
				}
				n := simops(res.Stats)
				cr := &r.cells[i]
				cr.simops += n
				cr.busy += d
				if rtr != nil {
					cr.allocs = append(cr.allocs, allocs)
				}
				r.split.add(rtr != nil, float64(n), d)
				r.lat = append(r.lat, float64(d)/1e6)
				ops += n
			}
		}
		cpu := cpuSelf() - cpu0
		r.rate = append(r.rate, float64(ops)/time.Since(roundStart).Seconds())
		r.cpuPerOp = append(r.cpuPerOp, cpu.Seconds()*1e6/float64(ops))
	}
	r.gcFrac = gcFrac(rt0, rt.read())
	return r
}
