package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSelf returns the user plus system CPU time this process has used.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of the utime and stime fields of /proc/<pid>/stat
// (USER_HZ, which Linux fixes at 100 for user space).
const clockTick = 10 * time.Millisecond

// cpuOf returns the user plus system CPU time process pid has used, from
// /proc/<pid>/stat.
func cpuOf(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis. utime and stime are fields
	// 14 and 15, so indices 11 and 12 after the state field.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime %q %q", pid, f[11], f[12])
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB returns the peak resident set (VmHWM) of the process whose
// /proc directory is dir ("self" or a pid), in MiB.
func peakRSSMB(dir string) (float64, error) {
	data, err := os.ReadFile("/proc/" + dir + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM line", dir)
}

// mallocs returns the number of heap objects allocated since the process
// started. ReadMemStats stops the world and flushes every P's allocation
// cache first, so the difference between two reads is exact; the runtime
// metrics count small objects only when a cached span is refilled.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runtimeSample reads the Go runtime's CPU counters.
type runtimeSample struct {
	gcCPU   float64 // CPU seconds spent in the garbage collector
	usedCPU float64 // CPU seconds used by Go code and the runtime (total minus idle)
}

// sampler reads the runtime counters into storage it reuses.
type sampler []metrics.Sample

func newSampler() sampler {
	return sampler{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
}

func (s sampler) read() runtimeSample {
	metrics.Read(s)
	return runtimeSample{
		gcCPU:   s[0].Value.Float64(),
		usedCPU: s[1].Value.Float64() - s[2].Value.Float64(),
	}
}

// gcFrac is the share of used CPU the garbage collector took between two
// samples.
func gcFrac(a, b runtimeSample) float64 {
	used := b.usedCPU - a.usedCPU
	if used <= 0 {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / used
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs;
// xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// driftProbe times a fixed pure-Go loop that calls no repository code:
// the median of five timings, in milliseconds. It is printed before and
// after each run as a reading of how fast the host was at the time, and
// never used to scale a metric.
func driftProbe() float64 {
	times := make([]float64, 5)
	for i := range times {
		start := time.Now()
		x := uint64(88172645463325252)
		for j := 0; j < 1<<24; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		times[i] = msSince(start)
		driftSink = x
	}
	return median(times)
}

// driftSink keeps the probe loop from being optimised away.
var driftSink uint64

// split accumulates work and time separately for the traced and the
// untraced units of an interleaved run, whose throughput ratio is the
// tracing overhead. Interleaving keeps host drift out of the ratio.
type split struct {
	work [2]float64
	time [2]time.Duration
}

func (s *split) add(traced bool, work float64, d time.Duration) {
	i := 0
	if traced {
		i = 1
	}
	s.work[i] += work
	s.time[i] += d
}

// overhead is the untraced throughput over the traced throughput, minus one.
func (s *split) overhead() float64 {
	untraced := s.work[0] / s.time[0].Seconds()
	traced := s.work[1] / s.time[1].Seconds()
	return untraced/traced - 1
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
