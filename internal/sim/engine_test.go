package sim

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// fired is one event delivery seen by a recorder: the clock at fire
// time and the event's payload.
type fired struct {
	when Time
	kind EventKind
	arg0 int32
	arg1 int32
}

// recorder installs a handler that logs every event Step fires and then
// runs then (if non-nil) with the delivery, so a test can schedule
// follow-up events from inside a firing event.
func recorder(e *Engine, then func(fired)) *[]fired {
	var got []fired
	e.SetHandler(func(kind EventKind, arg0, arg1 int32) {
		f := fired{e.Now(), kind, arg0, arg1}
		got = append(got, f)
		if then != nil {
			then(f)
		}
	})
	return &got
}

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine()
	got := recorder(e, nil)
	for _, d := range []Time{30, 10, 20, 10, 5} {
		e.AtEvent(d, EvSpin, int32(d), int32(2*d))
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []Time{5, 10, 10, 20, 30}
	if len(*got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(*got), len(want))
	}
	for i := range want {
		f := (*got)[i]
		if f.when != want[i] || Time(f.arg0) != want[i] {
			t.Fatalf("fire order %v, want times %v", *got, want)
		}
		if f.kind != EvSpin || f.arg1 != 2*f.arg0 {
			t.Fatalf("handler saw %+v, want the scheduled kind and payload", f)
		}
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	got := recorder(e, nil)
	for i := 0; i < 10; i++ {
		e.AtEvent(7, EvDispatch, int32(i), 0)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(*got) != 10 {
		t.Fatalf("fired %d events, want 10", len(*got))
	}
	for i, f := range *got {
		if f.arg0 != int32(i) {
			t.Fatalf("same-instant events fired out of order: %v", *got)
		}
	}
}

func TestEngineClockMonotonic(t *testing.T) {
	e := NewEngine()
	last := Time(-1)
	// Events scheduled "in the past" from inside an event must clamp.
	got := recorder(e, func(f fired) {
		switch f.arg0 {
		case 1:
			e.AtEvent(10, EvDispatch, 2, 0) // in the past relative to now=50
		case 2:
			if e.Now() < 50 {
				t.Errorf("clock ran backward: %d", e.Now())
			}
		}
	})
	e.AtEvent(50, EvDispatch, 1, 0)
	e.AtEvent(5, EvDispatch, 0, 0)
	for e.Step() {
		if e.Now() < last {
			t.Fatalf("clock went backward: %d after %d", e.Now(), last)
		}
		last = e.Now()
	}
	if len(*got) != 3 || (*got)[2].arg0 != 2 || (*got)[2].when != 50 {
		t.Fatalf("past-time event fired as %v, want it last at t=50", *got)
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	got := recorder(e, func(f fired) {
		if f.arg0 == 0 {
			e.AfterEvent(25, EvDispatch, 1, 0)
		}
	})
	e.AtEvent(100, EvDispatch, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(*got) != 2 || (*got)[1].when != 125 {
		t.Fatalf("AfterEvent fired as %v, want the second event at 125", *got)
	}
}

func TestEngineAfterNegativeClamps(t *testing.T) {
	e := NewEngine()
	got := recorder(e, func(f fired) {
		if f.arg0 == 0 {
			e.AfterEvent(-5, EvDispatch, 1, 0)
		}
	})
	e.AtEvent(10, EvDispatch, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(*got) != 2 {
		t.Fatal("negative AfterEvent never fired")
	}
	if w := (*got)[1].when; w != 10 {
		t.Errorf("negative AfterEvent fired at %d, want 10", w)
	}
}

func TestEngineStepLimit(t *testing.T) {
	e := NewEngine()
	e.SetMaxSteps(100)
	recorder(e, func(fired) { e.AfterEvent(1, EvDispatch, 0, 0) })
	e.AtEvent(0, EvDispatch, 0, 0)
	err := e.Run()
	if !errors.Is(err, ErrStepLimit) {
		t.Fatalf("Run error = %v, want ErrStepLimit", err)
	}
}

func TestEngineSetMaxStepsZeroRestoresDefault(t *testing.T) {
	e := NewEngine()
	e.SetMaxSteps(0)
	if e.maxSteps != DefaultMaxSteps {
		t.Fatalf("maxSteps = %d, want default", e.maxSteps)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	got := recorder(e, nil)
	for _, d := range []Time{5, 10, 15, 20} {
		e.AtEvent(d, EvDispatch, int32(d), 0)
	}
	if err := e.RunUntil(12); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(*got) != 2 || (*got)[0].when != 5 || (*got)[1].when != 10 {
		t.Fatalf("RunUntil(12) fired %v, want events at [5 10]", *got)
	}
	if e.Now() != 12 {
		t.Fatalf("clock after RunUntil = %d, want 12", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
}

func TestEngineStepOnEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// Property: for any random set of (time, index) pairs, the engine fires
// them sorted by time and, within a time, by scheduling order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		got := recorder(e, nil)
		for i, d := range delays {
			e.AtEvent(Time(d), EvDispatch, int32(i), 0)
		}
		if err := e.Run(); err != nil {
			return false
		}
		g := *got
		sorted := sort.SliceIsSorted(g, func(i, j int) bool {
			if g[i].when != g[j].when {
				return g[i].when < g[j].when
			}
			return g[i].arg0 < g[j].arg0
		})
		return sorted && len(g) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStepPayload(t *testing.T) {
	e := NewEngine()
	e.AtEvent(10, EvDispatch, 3, 9)
	kind, a0, a1, fired := e.StepPayload()
	if !fired || kind != EvDispatch || a0 != 3 || a1 != 9 {
		t.Fatalf("StepPayload = (%d, %d, %d, %v), want (EvDispatch, 3, 9, true)", kind, a0, a1, fired)
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %d, want 10", e.Now())
	}
	if _, _, _, fired := e.StepPayload(); fired {
		t.Fatal("StepPayload on empty queue reported an event")
	}
}

func TestEngineNextTime(t *testing.T) {
	e := NewEngine()
	e.SetHandler(func(EventKind, int32, int32) {})
	if _, ok := e.NextTime(); ok {
		t.Fatal("NextTime on empty queue reported an event")
	}
	e.AtEvent(30, EvDispatch, 0, 0)
	e.AtEvent(12, EvDispatch, 1, 0)
	if next, ok := e.NextTime(); !ok || next != 12 {
		t.Fatalf("NextTime = (%d, %v), want (12, true)", next, ok)
	}
	e.Step()
	if next, ok := e.NextTime(); !ok || next != 30 {
		t.Fatalf("NextTime after Step = (%d, %v), want (30, true)", next, ok)
	}
}

func TestEngineChargeStepExhaustsBudget(t *testing.T) {
	e := NewEngine()
	e.SetMaxSteps(10)
	for i := 0; i < 9; i++ {
		if e.ChargeStep() {
			t.Fatalf("budget exhausted after %d charges, limit is 10", i+1)
		}
	}
	if !e.ChargeStep() {
		t.Fatal("10th charge should refuse: the budget boundary belongs to a real event")
	}
	// A refused charge falls back to a real event, which is the unit
	// that gets counted — exactly once. The op on the boundary itself
	// is still within budget; the one after it trips Exhausted, so a
	// program doing exactly maxSteps units of work never sees a
	// spurious ErrStepLimit.
	e.SetHandler(func(EventKind, int32, int32) {})
	e.AtEvent(1, EvDispatch, 0, 0)
	e.Step()
	if e.Exhausted() {
		t.Fatal("work == maxSteps is within budget")
	}
	if !e.ChargeStep() {
		t.Fatal("charge past the boundary should refuse")
	}
	e.AtEvent(2, EvDispatch, 0, 0)
	e.Step()
	if !e.Exhausted() {
		t.Fatal("Exhausted should report true past the budget")
	}
}

func TestEngineTypedEventWithoutHandlerPanics(t *testing.T) {
	e := NewEngine()
	e.AtEvent(1, EvDispatch, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("firing a typed event with no handler should panic")
		}
	}()
	e.Step()
}

// TestEngineHeapProperty drives a large random schedule through the
// 4-ary heap and checks the (time, seq) fire order — the heap-shape
// analog of TestEngineOrderProperty, at a size that exercises multi-level
// sifts in both directions.
func TestEngineHeapProperty(t *testing.T) {
	e := NewEngine()
	r := NewRNG(99)
	const n = 5000
	type rec struct {
		when Time
		seq  int
	}
	var got []rec
	e.SetHandler(func(_ EventKind, arg0, _ int32) {
		got = append(got, rec{e.Now(), int(arg0)})
	})
	for i := 0; i < n; i++ {
		e.AtEvent(Time(r.Intn(500)), EvDispatch, int32(i), 0)
	}
	// Interleave pops and pushes to exercise steady-state churn.
	for i := 0; i < n/2; i++ {
		e.Step()
		e.AtEvent(e.Now()+Time(r.Intn(200)), EvDispatch, int32(n+i), 0)
	}
	for e.Step() {
	}
	if len(got) != n+n/2 {
		t.Fatalf("fired %d events, want %d", len(got), n+n/2)
	}
	sorted := sort.SliceIsSorted(got, func(i, j int) bool {
		if got[i].when != got[j].when {
			return got[i].when < got[j].when
		}
		return got[i].seq < got[j].seq
	})
	if !sorted {
		t.Fatal("heap fired events out of (time, seq) order")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGDerive(t *testing.T) {
	base := NewRNG(7)
	d0 := base.Derive(0)
	d1 := base.Derive(1)
	if d0.Uint64() == d1.Uint64() {
		t.Fatal("derived streams 0 and 1 start identically")
	}
	// Deriving must not disturb the base stream.
	base2 := NewRNG(7)
	if base.Uint64() != base2.Uint64() {
		t.Fatal("Derive disturbed the base stream")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGExpTimeMean(t *testing.T) {
	r := NewRNG(11)
	const mean = 100
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(r.ExpTime(mean))
	}
	got := sum / n
	if math.Abs(got-mean) > mean*0.05 {
		t.Fatalf("ExpTime mean = %.1f, want ~%d", got, mean)
	}
}

func TestRNGExpTimeZeroMean(t *testing.T) {
	r := NewRNG(1)
	if r.ExpTime(0) != 0 || r.ExpTime(-5) != 0 {
		t.Fatal("ExpTime of non-positive mean should be 0")
	}
}

func TestRNGTimeRange(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 10000; i++ {
		v := r.Time(23)
		if v < 0 || v >= 23 {
			t.Fatalf("Time(23) = %d out of range", v)
		}
	}
}

// ---------------------------------------------------------------------
// Window-advance API (PendingAt / PopBudget / RetimePending+FinishWindow)
// ---------------------------------------------------------------------

// TestPendingAtCoversQueue pins that the pending-event scan exposes
// every queued event exactly once with the payload it was scheduled
// with, in both queue layouts.
func TestPendingAtCoversQueue(t *testing.T) {
	for _, n := range []int{5, linearMax + 10} {
		e := NewEngine()
		for i := 0; i < n; i++ {
			e.AtEvent(Time(100-i), EvSpin, int32(i), int32(2*i))
		}
		if e.Pending() != n {
			t.Fatalf("Pending = %d, want %d", e.Pending(), n)
		}
		seen := make(map[int32]PendingEvent, n)
		for i := 0; i < e.Pending(); i++ {
			ev := e.PendingAt(i)
			seen[ev.Arg0] = ev
		}
		if len(seen) != n {
			t.Fatalf("scan saw %d distinct events, want %d", len(seen), n)
		}
		for i := 0; i < n; i++ {
			ev := seen[int32(i)]
			if ev.When != Time(100-i) || ev.Kind != EvSpin || ev.Arg1 != int32(2*i) || ev.Seq != uint64(i+1) {
				t.Fatalf("event %d = %+v, want when=%d arg1=%d seq=%d", i, ev, 100-i, 2*i, i+1)
			}
		}
	}
}

// TestApplyWindowEquivalence drives the same schedule two ways — fully
// event by event, and with a middle run of pops replaced by a
// RetimePending+FinishWindow commit — and requires identical counters,
// identical remaining pop order, and identical sequence numbering for
// events scheduled afterwards.
func TestApplyWindowEquivalence(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		e.SetHandler(func(EventKind, int32, int32) {})
		// Three "spinners" at 10/20/30 plus a horizon event at 100.
		e.AtEvent(10, EvSpin, 0, 0)
		e.AtEvent(20, EvSpin, 1, 0)
		e.AtEvent(30, EvSpin, 2, 0)
		e.AtEvent(100, EvDispatch, 9, 0)
		return e
	}

	// Reference: pop the three spins, each rescheduling one successor
	// past the horizon (what a probe rotation leaves behind).
	ref := build()
	for i := 0; i < 3; i++ {
		kind, arg0, _, fired := ref.StepPayload()
		if !fired || kind != EvSpin {
			t.Fatalf("pop %d: kind=%v fired=%v", i, kind, fired)
		}
		ref.AtEvent(Time(110+10*int(arg0)), EvSpin, arg0, 0)
	}

	// Windowed: commit the same three pops in closed form.
	win := build()
	seq0 := win.Seq()
	for i := 0; i < win.Pending(); i++ {
		ev := win.PendingAt(i)
		if ev.Kind != EvSpin {
			continue
		}
		// Spinner arg0 was popped as pop arg0+1 and rescheduled at
		// 110+10*arg0 with the (arg0+1)-th elided sequence number.
		win.RetimePending(i, Time(110+10*int(ev.Arg0)), seq0+uint64(ev.Arg0)+1)
	}
	win.FinishWindow(3)

	if ref.Steps() != win.Steps() {
		t.Fatalf("steps diverge: ref %d, win %d", ref.Steps(), win.Steps())
	}
	if ref.Seq() != win.Seq() {
		t.Fatalf("seq diverge: ref %d, win %d", ref.Seq(), win.Seq())
	}
	if ref.PopBudget() != win.PopBudget() {
		t.Fatalf("pop budget diverge: ref %d, win %d", ref.PopBudget(), win.PopBudget())
	}
	// Both schedule one more event (must draw the same seq), then the
	// remaining queues must pop identically.
	ref.AtEvent(105, EvDispatch, 7, 0)
	win.AtEvent(105, EvDispatch, 7, 0)
	for {
		rk, ra, _, rf := ref.StepPayload()
		wk, wa, _, wf := win.StepPayload()
		if rk != wk || ra != wa || rf != wf || ref.Now() != win.Now() {
			t.Fatalf("pop diverged: ref (%v,%d,%v)@%d vs win (%v,%d,%v)@%d",
				rk, ra, rf, ref.Now(), wk, wa, wf, win.Now())
		}
		if !rf {
			break
		}
	}
}

// TestApplyWindowHeapMode re-times entries while the queue is in heap
// mode and checks FinishWindow restores the heap invariant.
func TestApplyWindowHeapMode(t *testing.T) {
	e := NewEngine()
	e.SetHandler(func(EventKind, int32, int32) {})
	n := linearMax + 16
	for i := 0; i < n; i++ {
		e.AtEvent(Time(10+i), EvSpin, int32(i), 0)
	}
	if e.linear {
		t.Fatal("queue should be in heap mode")
	}
	// Push the earliest 8 entries to the back of the schedule.
	// RetimePending rewrites keys in place without moving entries, so
	// the scan still visits each original entry exactly once.
	seq0 := e.Seq()
	for i := 0; i < e.Pending(); i++ {
		ev := e.PendingAt(i)
		if ev.When < Time(10+8) {
			e.RetimePending(i, ev.When+Time(1000), seq0+uint64(ev.Arg0)+1)
		}
	}
	e.FinishWindow(8)
	// The retimed entries must drain in exactly the recomputed order:
	// the untouched events 8..n-1 at their original times, then the
	// retimed 0..7 at original+1000 (their new seqs preserve arrival
	// order within the group).
	var got []int32
	for e.Pending() > 0 {
		_, arg0, _, fired := e.StepPayload()
		if !fired {
			break
		}
		got = append(got, arg0)
	}
	var want []int32
	for i := 8; i < n; i++ {
		want = append(want, int32(i))
	}
	for i := 0; i < 8; i++ {
		want = append(want, int32(i))
	}
	if len(got) != len(want) {
		t.Fatalf("drained %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heap-mode drain order diverged at %d: got %v, want %v", i, got[:i+1], want[:i+1])
		}
	}
}

// TestPopBudgetMatchesExhaustion pins PopBudget against the actual
// trip point of the step limit.
func TestPopBudgetMatchesExhaustion(t *testing.T) {
	e := NewEngine()
	e.SetHandler(func(EventKind, int32, int32) {})
	e.SetMaxSteps(5)
	for i := 0; i < 10; i++ {
		e.AtEvent(Time(i), EvSpin, 0, 0)
	}
	for !e.Exhausted() {
		if e.PopBudget() == 0 {
			// Budget zero: the very next pop must trip.
			e.Step()
			if !e.Exhausted() {
				t.Fatal("pop after zero budget did not exhaust the engine")
			}
			return
		}
		e.Step()
	}
	t.Fatal("engine exhausted while budget was still positive")
}
