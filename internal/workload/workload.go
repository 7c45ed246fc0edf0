// Package workload generates the real-runtime workloads the experiments
// run: contended critical sections, read-mostly mixes and bounded-buffer
// pipelines. Each runner returns throughput figures the harness turns
// into tables.
package workload

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/locks"
	"repro/internal/stats"
)

// LatSummary condenses a per-operation latency distribution for the
// table columns the real-runtime sweeps print. Each worker records into
// its own stats.Hist (allocation-free in the hot loop) and the runner
// merges them, so the quantiles carry the histogram's documented
// ≤1/32 one-sided relative error and nothing depends on goroutine
// interleaving beyond the latencies themselves.
type LatSummary struct {
	P50Ns int64
	P99Ns int64
	// SlowFrac is the contention proxy: the fraction of operations
	// slower than twice the median. An uncontended run keeps nearly
	// every op within its own service time, so the mass beyond 2×p50 is
	// (to first order) the queueing tail.
	SlowFrac float64
}

// summarizeLat folds merged per-worker histograms into a LatSummary.
func summarizeLat(hists []stats.Hist) LatSummary {
	var h stats.Hist
	for i := range hists {
		h.Merge(&hists[i])
	}
	if h.Count() == 0 {
		return LatSummary{}
	}
	p50 := h.Quantile(0.5)
	return LatSummary{
		P50Ns:    p50,
		P99Ns:    h.Quantile(0.99),
		SlowFrac: float64(h.CountAbove(2*p50)) / float64(h.Count()),
	}
}

// spin burns roughly n loop iterations of local work.
func spin(n int) {
	for i := 0; i < n; i++ {
		if sink.Load() > 1<<62 {
			sink.Store(0)
		}
	}
}

var sink atomic.Int64

// CSResult reports a critical-section workload run.
type CSResult struct {
	Goroutines int
	Total      int64         // total acquisitions
	Elapsed    time.Duration // wall time
	NsPerOp    float64
	OpsPerSec  float64
	Lat        LatSummary // per acquire→release pair, think time excluded
}

// CSOpts configures RunCriticalSections.
type CSOpts struct {
	Goroutines int
	Iters      int // per goroutine
	CSWork     int // spin units inside the critical section
	ThinkWork  int // spin units outside
}

// RunCriticalSections drives a contended lock and reports throughput.
// It also verifies mutual exclusion with an unprotected counter: on any
// violation the count will (overwhelmingly likely) come up short, which
// callers should treat as a failed run.
func RunCriticalSections(l sync.Locker, o CSOpts) (CSResult, bool) {
	counter := 0
	// One histogram per goroutine: Record is allocation-free and the
	// pair of clock reads it costs per op is identical for every lock
	// under test, so the columns stay comparable.
	hists := make([]stats.Hist, o.Goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < o.Goroutines; g++ {
		h := &hists[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < o.Iters; i++ {
				t0 := time.Now()
				l.Lock()
				counter++
				if o.CSWork > 0 {
					spin(o.CSWork)
				}
				l.Unlock()
				h.Record(time.Since(t0).Nanoseconds())
				if o.ThinkWork > 0 {
					spin(o.ThinkWork)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := int64(o.Goroutines) * int64(o.Iters)
	res := CSResult{
		Goroutines: o.Goroutines,
		Total:      total,
		Elapsed:    elapsed,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(total),
		OpsPerSec:  float64(total) / elapsed.Seconds(),
		Lat:        summarizeLat(hists),
	}
	return res, counter == int(total)
}

// RWResult reports a read/write mix run.
type RWResult struct {
	ReadFraction float64
	Reads        int64
	Writes       int64
	Elapsed      time.Duration
	OpsPerSec    float64
	Lat          LatSummary // per section (read or write), entry to exit
}

// RWOpts configures RunReadMix.
type RWOpts struct {
	Goroutines   int
	Iters        int     // per goroutine
	ReadFraction float64 // 0..1
	Work         int     // spin units inside each section
}

// RunReadMix drives any registered reader-writer lock with the given
// read fraction and verifies the invariant that writers keep two
// variables equal. The boolean result is false if a reader ever saw the
// invariant broken.
func RunReadMix(rw locks.RWLock, o RWOpts) (RWResult, bool) {
	x, y := 0, 0
	var bad atomic.Int32
	var reads, writes atomic.Int64
	hists := make([]stats.Hist, o.Goroutines)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < o.Goroutines; g++ {
		g := g
		h := &hists[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Deterministic per-goroutine operation mix.
			rng := uint64(g)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < o.Iters; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				t0 := time.Now()
				if float64(rng%1000) < o.ReadFraction*1000 {
					tok := rw.RLock()
					if x != y {
						bad.Add(1)
					}
					if o.Work > 0 {
						spin(o.Work)
					}
					rw.RUnlock(tok)
					reads.Add(1)
				} else {
					rw.Lock()
					x++
					if o.Work > 0 {
						spin(o.Work)
					}
					y++
					rw.Unlock()
					writes.Add(1)
				}
				h.Record(time.Since(t0).Nanoseconds())
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := reads.Load() + writes.Load()
	res := RWResult{
		ReadFraction: o.ReadFraction,
		Reads:        reads.Load(),
		Writes:       writes.Load(),
		Elapsed:      elapsed,
		OpsPerSec:    float64(total) / elapsed.Seconds(),
		Lat:          summarizeLat(hists),
	}
	return res, bad.Load() == 0 && x == y && int64(x) == writes.Load()
}

// PipelineResult reports a bounded-buffer pipeline run.
type PipelineResult struct {
	Producers    int
	Consumers    int
	Items        int64
	Elapsed      time.Duration
	ItemsPerSec  float64
	SumValidated bool
	Lat          LatSummary // per push/pop, semaphore wait included
}

// PipelineOpts configures RunPipeline.
type PipelineOpts struct {
	Producers int
	Consumers int
	Items     int // total items pushed through
	Capacity  int // buffer capacity
	Mode      core.WaitMode
}

// RunPipeline runs the classic semaphore-paired bounded buffer: a
// `spaces` semaphore gates producers, an `items` semaphore gates
// consumers, and a mechanism Mutex guards the ring. The checksum of
// consumed values must equal the checksum of produced values.
func RunPipeline(o PipelineOpts) PipelineResult {
	if o.Capacity < 1 {
		o.Capacity = 1
	}
	spaces := core.NewSemaphore(int64(o.Capacity))
	items := core.NewSemaphore(0)
	spaces.Mode, items.Mode = o.Mode, o.Mode
	var mu core.Mutex
	mu.Mode = o.Mode

	buf := make([]int64, o.Capacity)
	head, tail := 0, 0

	var produced, consumed atomic.Int64
	var pushSum, popSum atomic.Int64
	hists := make([]stats.Hist, o.Producers+o.Consumers)
	var wg sync.WaitGroup
	start := time.Now()

	for p := 0; p < o.Producers; p++ {
		h := &hists[p]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := produced.Add(1)
				if n > int64(o.Items) {
					return
				}
				t0 := time.Now()
				spaces.Acquire()
				mu.Lock()
				buf[tail] = n
				tail = (tail + 1) % o.Capacity
				mu.Unlock()
				items.Release()
				h.Record(time.Since(t0).Nanoseconds())
				pushSum.Add(n)
			}
		}()
	}
	for c := 0; c < o.Consumers; c++ {
		h := &hists[o.Producers+c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := consumed.Add(1)
				if n > int64(o.Items) {
					return
				}
				t0 := time.Now()
				items.Acquire()
				mu.Lock()
				v := buf[head]
				head = (head + 1) % o.Capacity
				mu.Unlock()
				spaces.Release()
				h.Record(time.Since(t0).Nanoseconds())
				popSum.Add(v)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	return PipelineResult{
		Producers:    o.Producers,
		Consumers:    o.Consumers,
		Items:        int64(o.Items),
		Elapsed:      elapsed,
		ItemsPerSec:  float64(o.Items) / elapsed.Seconds(),
		SumValidated: pushSum.Load() == popSum.Load(),
		Lat:          summarizeLat(hists),
	}
}
