package sharded

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGateBasic(t *testing.T) {
	g := NewGate(2, 0, 4)
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	// maxWaiters=0: no waiting room, immediate shed.
	if err := g.Acquire(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("over-capacity acquire = %v, want ErrShed", err)
	}
	g.Release()
	if err := g.Acquire(ctx); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	g.Release()
	g.Release()
	st := g.Stats()
	if st.Admitted != 3 || st.Shed != 1 || st.InFlight != 0 {
		t.Fatalf("stats = %+v, want admitted=3 shed=1 inflight=0", st)
	}
}

func TestGateDeadlineWhileWaiting(t *testing.T) {
	g := NewGate(1, 4, 4)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	g.Release()
	st := g.Stats()
	if st.TimedOut != 1 || st.Waiting != 0 {
		t.Fatalf("stats = %+v, want timedOut=1 waiting=0", st)
	}
}

// TestGateConservation is the -race storm the issue asks for: permits
// must never be lost across interleaved sheds, deadline expiries,
// cancellations, and successful admissions. Every admission is
// released; afterwards the semaphore holds its full complement and
// every op is accounted exactly once.
func TestGateConservation(t *testing.T) {
	const permits, maxWaiters, goroutines, iters = 3, 4, 16, 300
	g := NewGate(permits, maxWaiters, 4)
	var ok, shed, timedOut, canceled atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < iters; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				ctx := context.Background()
				var cancel context.CancelFunc
				switch rng % 3 {
				case 0: // tight deadline: often expires in the waiting room
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng%50)*time.Microsecond)
				case 1: // cancellation racing the admission
					ctx, cancel = context.WithCancel(ctx)
					if rng%2 == 0 {
						cancel()
					} else {
						go cancel()
					}
				default: // patient caller
					ctx, cancel = context.WithTimeout(ctx, time.Second)
				}
				err := g.Acquire(ctx)
				switch {
				case err == nil:
					if rng%4 == 0 {
						time.Sleep(time.Duration(rng%20) * time.Microsecond)
					}
					g.Release()
					ok.Add(1)
				case errors.Is(err, ErrShed):
					shed.Add(1)
				case errors.Is(err, context.DeadlineExceeded):
					timedOut.Add(1)
				case errors.Is(err, context.Canceled):
					canceled.Add(1)
				default:
					t.Errorf("unexpected acquire error: %v", err)
				}
				cancel()
			}
		}()
	}
	wg.Wait()
	total := ok.Load() + shed.Load() + timedOut.Load() + canceled.Load()
	if want := int64(goroutines * iters); total != want {
		t.Fatalf("accounted %d ops, want %d", total, want)
	}
	st := g.Stats()
	if st.InFlight != 0 || st.Waiting != 0 {
		t.Fatalf("quiesced gate still shows inflight=%d waiting=%d", st.InFlight, st.Waiting)
	}
	if got := g.sem.Value(); got != permits {
		t.Fatalf("permits after storm = %d, want %d (lost or duplicated)", got, permits)
	}
	if st.Admitted != ok.Load() || st.Shed != shed.Load() ||
		st.TimedOut != timedOut.Load() || st.Canceled != canceled.Load() {
		t.Fatalf("counter mismatch: gate %+v vs observed ok=%d shed=%d to=%d cancel=%d",
			st, ok.Load(), shed.Load(), timedOut.Load(), canceled.Load())
	}
}

// TestGateDrain: after Close, no acquire succeeds (free permits or
// not), parked waiters unblock with ErrClosed, and Drain returns once
// the holders release.
func TestGateDrain(t *testing.T) {
	const permits = 2
	g := NewGate(permits, 8, 4)
	ctx := context.Background()
	// Fill the permits.
	for i := 0; i < permits; i++ {
		if err := g.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Park waiters behind them.
	const waiters = 4
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { errs <- g.Acquire(ctx) }()
	}
	time.Sleep(5 * time.Millisecond) // let them reach the waiting room

	g.Close()
	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("parked waiter got %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("waiter did not unblock after Close")
		}
	}
	// New arrivals fail even though permits will come free.
	if err := g.Acquire(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close acquire = %v, want ErrClosed", err)
	}

	// Drain must wait for the holders, then report a quiet gate.
	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- g.Drain(dctx)
	}()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with %d holders inside", err, permits)
	case <-time.After(20 * time.Millisecond):
	}
	g.Release()
	g.Release()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Drain did not return after all releases")
	}
	if got := g.sem.Value(); got != permits {
		t.Fatalf("permits after drain = %d, want %d", got, permits)
	}
	if st := g.Stats(); st.InFlight != 0 || !st.Closed {
		t.Fatalf("post-drain stats = %+v", st)
	}
}

// TestGateDrainRace: Close racing a storm of acquirers — any acquire
// that wins a permit concurrently with Close either completes (and is
// awaited by Drain) or is rolled back; either way Drain's nil return
// means zero callers inside and a full permit pool. Each winner holds
// its permit briefly and counts it if Drain has already returned nil
// by the time it releases: a caller admitted behind Drain's back. The
// storm repeats over fresh gates to give that race more chances.
func TestGateDrainRace(t *testing.T) {
	const permits, goroutines, rounds = 2, 12, 20
	for round := 0; round < rounds; round++ {
		g := NewGate(permits, goroutines, 4)
		var drained atomic.Bool
		var heldPastDrain atomic.Int64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
					if err := g.Acquire(ctx); err == nil {
						time.Sleep(20 * time.Microsecond)
						if drained.Load() {
							heldPastDrain.Add(1)
						}
						g.Release()
					}
					cancel()
				}
			}()
		}
		time.Sleep(2 * time.Millisecond)
		dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := g.Drain(dctx)
		if err == nil {
			drained.Store(true)
		}
		cancel()
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("round %d: Drain: %v", round, err)
		}
		if n := heldPastDrain.Load(); n != 0 {
			t.Fatalf("round %d: Drain returned nil while %d admitted callers held a permit", round, n)
		}
		if got := g.sem.Value(); got != permits {
			t.Fatalf("round %d: permits after drain race = %d, want %d", round, got, permits)
		}
		if st := g.Stats(); st.InFlight != 0 {
			t.Fatalf("round %d: inflight after drain = %d", round, st.InFlight)
		}
	}
}

func TestGateUnboundedWaiters(t *testing.T) {
	g := NewGate(1, -1, 2)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Unbounded room: nobody sheds; the deadline is the only exit.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded (never ErrShed)", err)
	}
	g.Release()
	if st := g.Stats(); st.Shed != 0 {
		t.Fatalf("unbounded gate shed %d", st.Shed)
	}
}
