package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/sharded"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The layer legs of the traced run each time one public call of one
// layer in isolation.

// enginePopPopulations are the standing event populations of the engine
// leg: 8 stays in the engine's linear mode, the rest run as a heap.
var enginePopPopulations = []int{8, 32, 256, 1024}

// enginePopNs times sim.Engine AtEvent+Step pairs with n events standing
// in the queue, each new event due 1 to 64 cycles after the current
// time. It returns the median ns per pair over five batches.
func enginePopNs(n int, seed uint64, tr *tracer, parent int) float64 {
	e := sim.NewEngine()
	e.SetHandler(func(sim.EventKind, int32, int32) {})
	deltas := make([]sim.Time, 4096)
	x := seed
	for i := range deltas {
		x = splitmix64(x)
		deltas[i] = sim.Time(1 + x%64)
	}
	for i := 0; i < n; i++ {
		e.AtEvent(deltas[i%len(deltas)], sim.EvDispatch, int32(i), 0)
	}
	const batch = 1 << 19
	times := make([]float64, 5)
	for r := range times {
		sp := tr.begin("sim", "sim.Engine.AtEvent+Step", parent, int64(r))
		start := time.Now()
		for i := 0; i < batch; i++ {
			e.AtEvent(e.Now()+deltas[i&4095], sim.EvDispatch, 0, 0)
			e.Step()
		}
		times[r] = float64(time.Since(start)) / batch
		tr.end(sp)
	}
	return median(times)
}

// resetMs times Pool.Get of one storm shape on a pool holding a machine
// of that shape: the median over fifteen calls, in ms.
func resetMs(c stormCell, cfg machine.Config, tr *tracer, parent int) (float64, error) {
	pool := new(machine.Pool)
	m, err := pool.Get(cfg)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", c.label, err)
	}
	pool.Put(m)
	times := make([]float64, 15)
	for r := range times {
		sp := tr.begin("machine", "machine.Pool.Get", parent, int64(r))
		start := time.Now()
		m, err := pool.Get(cfg)
		times[r] = msSince(start)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", c.label, err)
		}
		pool.Put(m)
	}
	return median(times), nil
}

// parallelNs runs op(0) to op(per-1) on each of workers goroutines, five
// batches, and returns the median ns one goroutine spends per op.
func parallelNs(workers, per int, tr *tracer, parent int, layer, name string, op func(i int)) float64 {
	times := make([]float64, 5)
	for r := range times {
		sp := tr.begin(layer, name, parent, int64(r))
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					op(i)
				}
			}()
		}
		wg.Wait()
		times[r] = float64(time.Since(start)) / float64(per)
		tr.end(sp)
	}
	return median(times)
}

// legBatch is the per-goroutine op count of the Gate and Hist legs.
const legBatch = 1 << 18

// gateNs times Gate.Acquire+Release with workers goroutines on a gate
// built with cmd/ratelimiter's defaults (4 permits, 64 waiters). It
// checks that every acquire was admitted and every permit returned.
func gateNs(workers int, tr *tracer, parent int) (float64, string) {
	g := sharded.NewGate(4, 64, 0)
	ctx := context.Background()
	var refused atomic.Int64
	ns := parallelNs(workers, legBatch, tr, parent, "sharded", "sharded.Gate.Acquire+Release", func(int) {
		if g.Acquire(ctx) != nil {
			refused.Add(1)
			return
		}
		g.Release()
	})
	st := g.Stats()
	want := int64(5 * workers * legBatch)
	if refused.Load() != 0 || st.Admitted != want || st.InFlight != 0 {
		return ns, fmt.Sprintf("gate leg: admitted %d of %d, refused %d, in flight %d", st.Admitted, want, refused.Load(), st.InFlight)
	}
	return ns, ""
}

// histNs times ShardedHist.Record with workers goroutines and checks the
// snapshot holds every sample.
func histNs(workers int, tr *tracer, parent int) (float64, string) {
	h := stats.NewShardedHist(0)
	ns := parallelNs(workers, legBatch, tr, parent, "stats", "stats.ShardedHist.Record", func(i int) {
		h.Record(int64(i*7919) & 0xfffff)
	})
	want := uint64(5 * workers * legBatch)
	if got := h.Snapshot().Count(); got != want {
		return ns, fmt.Sprintf("hist leg: %d samples recorded, want %d", got, want)
	}
	return ns, ""
}

// layerLegs runs every leg and adds its metrics to m.
func layerLegs(seed uint64, m map[string]float64, tr *tracer) ([]string, error) {
	root := tr.begin("perfbench", "layer legs", -1, 0)
	defer tr.end(root)
	runtime.GOMAXPROCS(1)
	for _, n := range enginePopPopulations {
		m[fmt.Sprintf("sim.pop_ns.%d", n)] = enginePopNs(n, seed, tr, root)
	}
	for i, c := range stormCells {
		ms, err := resetMs(c, c.config(seed, i), tr, root)
		if err != nil {
			return nil, err
		}
		m["machine.reset_ms."+c.label] = ms
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	var problems []string
	ns, p1 := gateNs(nproc, tr, root)
	m["sharded.gate_ns_per_op"] = ns
	ns, p2 := histNs(nproc, tr, root)
	m["stats.hist_record_ns"] = ns
	for _, p := range []string{p1, p2} {
		if p != "" {
			problems = append(problems, p)
		}
	}
	return problems, nil
}
