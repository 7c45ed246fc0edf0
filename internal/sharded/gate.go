package sharded

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Admission errors. Callers map these to transport-level responses
// (cmd/ratelimiter: ErrShed -> 429, deadline/close -> 503).
var (
	// ErrShed reports that the gate's waiter bound was already full:
	// the request was rejected immediately instead of queued. Shedding
	// early is the point — a request that would only time out in the
	// queue is cheapest to refuse at the door.
	ErrShed = errors.New("sharded: gate at capacity, request shed")
	// ErrClosed reports that the gate has begun draining: no acquire
	// succeeds after Close, even with free permits.
	ErrClosed = errors.New("sharded: gate closed")
)

// Gate is the admission-controlled front of the striped semaphore: at
// most `permits` callers hold it concurrently, at most `maxWaiters`
// more may wait, and everyone beyond that is shed immediately with
// ErrShed. Bounding the waiting room is what keeps tail latency
// bounded under overload: with W waiters ahead and P permits cycling
// every service time S, the worst queue delay is ~S*(W/P+1) no matter
// how far the offered rate exceeds capacity, while an unbounded
// semaphore's queue — and so its p99 — grows with every excess
// arrival. Outcome counts ride the striped Counter so the accounting
// adds nothing to the hot path's contention.
//
// The zero value is not ready; use NewGate.
type Gate struct {
	sem        *Semaphore
	permits    int64
	maxWaiters int64
	waiters    atomic.Int64
	inflight   atomic.Int64
	closed     atomic.Bool

	admitted *Counter
	shed     *Counter
	timedOut *Counter
	canceled *Counter
}

// NewGate returns a gate over a striped semaphore with the given
// permit count. maxWaiters bounds the waiting room: 0 means shed the
// moment no permit is free (pure try), < 0 means an unbounded room
// (no shedding; deadlines are then the only backpressure). stripes
// sizes the semaphore and counters as in NewSemaphore/NewCounter.
func NewGate(permits int64, maxWaiters int, stripes int) *Gate {
	return &Gate{
		sem:        NewSemaphore(permits, stripes),
		permits:    permits,
		maxWaiters: int64(maxWaiters),
		admitted:   NewCounter(stripes),
		shed:       NewCounter(stripes),
		timedOut:   NewCounter(stripes),
		canceled:   NewCounter(stripes),
	}
}

// Capacity reports the permit count.
func (g *Gate) Capacity() int64 { return g.permits }

// admit records a successful acquisition. It counts the caller in
// flight before re-checking closure, so a Close racing the permit grab
// is seen by one side (Go's atomics are sequentially consistent):
// either admit sees the close and hands the permit back, or Drain sees
// the caller in flight and waits for its Release. The permit goes home
// before the in-flight count drops, here and in Release, so Drain's
// nil return finds every permit home.
func (g *Gate) admit() error {
	g.inflight.Add(1)
	if g.closed.Load() {
		g.sem.Release()
		g.inflight.Add(-1)
		return ErrClosed
	}
	g.admitted.Inc()
	return nil
}

// waitErr classifies a context failure into the gate's counters.
func (g *Gate) waitErr(ctx context.Context) error {
	err := ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) {
		g.timedOut.Inc()
	} else {
		g.canceled.Inc()
	}
	return err
}

// Acquire admits the caller or reports why not: nil (admitted — pair
// with Release), ErrShed (waiting room full), ErrClosed (draining), or
// ctx.Err() (deadline/cancellation while waiting). The wait uses the
// same bounded backoff as Semaphore.AcquireContext.
func (g *Gate) Acquire(ctx context.Context) error {
	if g.closed.Load() {
		return ErrClosed
	}
	if g.sem.TryAcquire() {
		return g.admit()
	}
	// No permit free: enter the bounded waiting room or shed.
	if g.maxWaiters >= 0 {
		if g.waiters.Add(1) > g.maxWaiters {
			g.waiters.Add(-1)
			g.shed.Inc()
			return ErrShed
		}
	} else {
		g.waiters.Add(1)
	}
	defer g.waiters.Add(-1)

	b := newBackoff()
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		if g.closed.Load() {
			return ErrClosed
		}
		if g.sem.TryAcquire() {
			return g.admit()
		}
		d := b.next()
		if d <= 0 {
			select {
			case <-ctx.Done():
				return g.waitErr(ctx)
			default:
			}
			continue
		}
		if timer == nil {
			timer = time.NewTimer(d)
		} else {
			timer.Reset(d)
		}
		select {
		case <-ctx.Done():
			return g.waitErr(ctx)
		case <-timer.C:
		}
	}
}

// Release returns an admitted caller's permit.
func (g *Gate) Release() {
	g.sem.Release()
	g.inflight.Add(-1)
}

// Close begins the drain: every subsequent (and every waiting) Acquire
// fails with ErrClosed; permits already held stay valid until their
// Release. Idempotent.
func (g *Gate) Close() { g.closed.Store(true) }

// Closed reports whether the drain has begun.
func (g *Gate) Closed() bool { return g.closed.Load() }

// Drain closes the gate and waits until every admitted caller has
// released, or ctx is done. After a nil return the gate holds its full
// permit complement and no caller is inside.
func (g *Gate) Drain(ctx context.Context) error {
	g.Close()
	b := newBackoff()
	for g.inflight.Load() != 0 {
		d := b.next()
		if d <= 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
	}
	return nil
}

// GateStats is a point-in-time snapshot of the admission counters.
type GateStats struct {
	Admitted int64 // acquisitions granted
	Shed     int64 // rejected at the door (waiting room full)
	TimedOut int64 // deadline expired while waiting
	Canceled int64 // context canceled while waiting
	InFlight int64 // currently admitted, not yet released
	Waiting  int64 // currently in the waiting room
	Closed   bool
}

// Stats snapshots the counters — linearizable-enough concurrent with
// traffic, exact once the gate quiesces.
func (g *Gate) Stats() GateStats {
	return GateStats{
		Admitted: g.admitted.Load(),
		Shed:     g.shed.Load(),
		TimedOut: g.timedOut.Load(),
		Canceled: g.canceled.Load(),
		InFlight: g.inflight.Load(),
		Waiting:  g.waiters.Load(),
		Closed:   g.closed.Load(),
	}
}
