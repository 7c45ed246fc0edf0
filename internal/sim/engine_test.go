package sim

import (
	"errors"
	"math"
	"slices"
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
		e.AtEvent(d, EvFault, int32(d), int32(2*d))
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
		if f.kind != EvFault || f.arg1 != 2*f.arg0 {
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

// TestEngineHeapProperty drives a large random schedule through both
// containers and checks the (time, seq) fire order: near events churn
// through the calendar while a quarter of them land beyond its span, at
// a size that exercises multi-level sifts of the overflow heap in both
// directions and overflow events firing among calendar ones.
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
	delay := func() Time {
		if r.Intn(4) == 0 {
			return Time(calSpan + r.Intn(3*calSpan))
		}
		return Time(r.Intn(500))
	}
	for i := 0; i < n; i++ {
		e.AtEvent(delay(), EvDispatch, int32(i), 0)
	}
	if e.OverflowPushes() == 0 {
		t.Fatal("no event reached the overflow heap")
	}
	// Interleave pops and pushes to exercise steady-state churn.
	for i := 0; i < n/2; i++ {
		e.Step()
		e.AtEvent(e.Now()+delay(), EvDispatch, int32(n+i), 0)
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
		t.Fatal("queue fired events out of (time, seq) order")
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
// Window-advance API (ScanWindow / PopBudget / FinishWindow)
// ---------------------------------------------------------------------

// TestPurgePendingSeesQueue pins that PurgePending's match sees every
// queued event exactly once with the payload it was scheduled with, in
// both containers (calendar and overflow heap), and that a match that
// removes nothing leaves pop order untouched.
func TestPurgePendingSeesQueue(t *testing.T) {
	for _, n := range []int{5, 40} {
		e := NewEngine()
		for i := 0; i < n; i++ {
			when := Time(100 - i)
			if i%3 == 0 {
				when += calSpan // beyond the span: the overflow heap
			}
			e.AtEvent(when, EvFault, int32(i), int32(2*i))
		}
		if e.Pending() != n {
			t.Fatalf("Pending = %d, want %d", e.Pending(), n)
		}
		if want := uint64((n + 2) / 3); e.OverflowPushes() != want {
			t.Fatalf("OverflowPushes = %d, want %d", e.OverflowPushes(), want)
		}
		seen := make(map[int32]PendingEvent, n)
		e.PurgePending(func(ev PendingEvent) bool {
			seen[ev.Arg0] = ev
			return false
		})
		if len(seen) != n {
			t.Fatalf("scan saw %d distinct events, want %d", len(seen), n)
		}
		for i := 0; i < n; i++ {
			ev := seen[int32(i)]
			when := Time(100 - i)
			if i%3 == 0 {
				when += calSpan
			}
			if ev.When != when || ev.Kind != EvFault || ev.Arg1 != int32(2*i) || ev.Seq != uint64(i+1) {
				t.Fatalf("event %d = %+v, want when=%d arg1=%d seq=%d", i, ev, when, 2*i, i+1)
			}
		}
		// Purging the odd processors removes exactly those, and the rest
		// still fire in (when, seq) order.
		if got := e.PurgePending(func(ev PendingEvent) bool { return ev.Arg0%2 == 1 }); got != n/2 {
			t.Fatalf("PurgePending removed %d, want %d", got, n/2)
		}
		last := Time(-1)
		for e.Pending() > 0 {
			_, arg0, _, _ := e.StepPayload()
			if arg0%2 == 1 || e.Now() < last {
				t.Fatalf("after purge popped processor %d at %d (last %d)", arg0, e.Now(), last)
			}
			last = e.Now()
		}
	}
}

// TestApplyWindowEquivalence drives the same schedule two ways — fully
// event by event, and with a run of pops replaced by a
// ScanWindow+FinishWindow commit — and requires identical counters,
// identical remaining pop order, and identical sequence numbering for
// events scheduled afterwards. The scan must stop at the first other
// event (the dispatch), hand the spins back in firing order, and stop
// at the overflow heap's top whatever its kind.
func TestApplyWindowEquivalence(t *testing.T) {
	build := func() *Engine {
		e := NewEngine()
		e.SetHandler(func(EventKind, int32, int32) {})
		// Three "spinners" at 30/10/20 plus a horizon event at 100, a
		// spinner behind it and one in the overflow heap.
		e.AtEvent(30, EvFault, 2, 0)
		e.AtEvent(10, EvFault, 0, 0)
		e.AtEvent(20, EvFault, 1, 0)
		e.AtEvent(100, EvDispatch, 9, 0)
		e.AtEvent(150, EvFault, 3, 0)
		e.AtEvent(calSpan+5, EvFault, 4, 0)
		return e
	}
	eligible := []uint64{0b11111}

	// Reference: pop the three spins, each rescheduling one successor
	// past the dispatch.
	ref := build()
	for i := 0; i < 3; i++ {
		kind, arg0, _, fired := ref.StepPayload()
		if !fired || kind != EvFault || arg0 != int32(i) {
			t.Fatalf("pop %d: kind=%v arg0=%d fired=%v", i, kind, arg0, fired)
		}
		ref.AtEvent(Time(110+10*int(arg0)), EvFault, arg0, 0)
	}

	// Windowed: commit the same three pops as one batch.
	win := build()
	set := win.ScanWindow(EvFault, 0, eligible, nil)
	if len(set) != 3 {
		t.Fatalf("ScanWindow = %d events, want the 3 before the dispatch", len(set))
	}
	for i := range set {
		if set[i].Arg0 != int32(i) || set[i].When != Time(10+10*i) {
			t.Fatalf("set[%d] = %+v, want processor %d at %d", i, set[i], i, 10+10*i)
		}
		// Spinner i was popped as pop i+1 and rescheduled at 110+10i.
		set[i].When = Time(110 + 10*i)
	}
	win.FinishWindow(set)

	// With the dispatch gone, a scan runs up to the overflow heap's top:
	// the spinner at 150, not the one due a span ahead.
	if probe := build(); probe.PurgePending(func(ev PendingEvent) bool { return ev.Kind == EvDispatch }) == 1 {
		if set := probe.ScanWindow(EvFault, 0, eligible, nil); len(set) != 4 || set[3].When != 150 {
			t.Fatalf("ScanWindow past the dispatch = %+v; want 4 events ending at 150", set)
		}
	}

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

// TestApplyWindowHeapMode retimes a window whose successors cross the
// calendar's span into the overflow heap, share instants with a
// pending event and with each other, and checks that the queue drains
// in exactly the recomputed (when, seq) order: the commit numbers the
// set in order, so each relinked event queues behind every event
// already at its instant.
func TestApplyWindowHeapMode(t *testing.T) {
	e := NewEngine()
	e.SetHandler(func(EventKind, int32, int32) {})
	const n = 32
	for i := 0; i < n; i++ {
		e.AtEvent(Time(10+i), EvFault, int32(i), 0)
	}
	set := e.ScanWindow(EvFault, 0, []uint64{1<<n - 1}, nil)
	if len(set) != n {
		t.Fatalf("ScanWindow = %d events; want all %d", len(set), n)
	}
	// Retime the earliest 8 entries: the even ones past the span, 1 and
	// 5 onto the instant of pending event 11, 3 and 7 onto an empty
	// instant after every pending event.
	seq0 := e.Seq()
	set = set[:8]
	for i := range set {
		switch {
		case i%2 == 0:
			set[i].When = calSpan + Time(10+i)
		case i%4 == 1:
			set[i].When = 21
		default:
			set[i].When = 50
		}
	}
	e.FinishWindow(set)
	if e.OverflowPushes() != 4 {
		t.Fatalf("OverflowPushes = %d, want the 4 retimes past the span", e.OverflowPushes())
	}
	if e.Seq() != seq0+8 || e.Steps() != 8 {
		t.Fatalf("Seq/Steps = %d/%d after the commit, want %d/8", e.Seq(), e.Steps(), seq0+8)
	}
	var got []int32
	for e.Pending() > 0 {
		_, arg0, _, _ := e.StepPayload()
		got = append(got, arg0)
	}
	// 8, 9, 10 at 18..20; at 21 the pending 11, then 1 and 5 in set
	// order; 12..31 at 22..41; at 50 3 then 7; then the overflow heap.
	want := []int32{8, 9, 10, 11, 1, 5}
	for i := 12; i < n; i++ {
		want = append(want, int32(i))
	}
	want = append(want, 3, 7, 0, 2, 4, 6)
	if !slices.Equal(got, want) {
		t.Fatalf("drain order\n got  %v\n want %v", got, want)
	}
}

// TestPopBudgetMatchesExhaustion pins PopBudget against the actual
// trip point of the step limit.
func TestPopBudgetMatchesExhaustion(t *testing.T) {
	e := NewEngine()
	e.SetHandler(func(EventKind, int32, int32) {})
	e.SetMaxSteps(5)
	for i := 0; i < 10; i++ {
		e.AtEvent(Time(i), EvFault, 0, 0)
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

// TestEngineZeroAllocs pins the allocation-free contract once the
// queue's arrays are warm: scheduling and popping at standing
// populations of 8 to 1,024 events (every eighth push landing in the
// overflow heap), a window scan and commit, and Reset of a used engine
// all allocate nothing.
func TestEngineZeroAllocs(t *testing.T) {
	for _, n := range []int{8, 32, 256, 1024} {
		e := NewEngine()
		i := 0
		churn := func() {
			d := Time(1 + i%61)
			if i%8 == 0 {
				d = calSpan + Time(i%97)
			}
			e.AtEvent(e.Now()+d, EvDispatch, int32(i%n), 0)
			e.StepPayload()
			i++
		}
		for j := 0; j < n; j++ {
			e.AtEvent(Time(j%64), EvDispatch, int32(j), 0)
		}
		for j := 0; j < 1<<14; j++ {
			churn()
		}
		if e.OverflowPushes() == 0 {
			t.Fatalf("population %d: no push reached the overflow heap", n)
		}
		if a := testing.AllocsPerRun(100, func() {
			for j := 0; j < 64; j++ {
				churn()
			}
		}); a != 0 {
			t.Errorf("population %d: AtEvent+StepPayload allocated %.1f times per 64 pairs", n, a)
		}
		if a := testing.AllocsPerRun(20, func() {
			e.Reset()
			for j := 0; j < n; j++ {
				e.AtEvent(Time(j%64+j%8*calSpan), EvDispatch, int32(j), 0)
			}
		}); a != 0 {
			t.Errorf("population %d: Reset and refill allocated %.1f times", n, a)
		}
	}

	// A probe storm: each window retimes the pending probes one round
	// later, as the machine layer's storm commit does.
	e := NewEngine()
	const spinners = 64
	for p := 0; p < spinners; p++ {
		e.AtEvent(Time(10*p), EvFault, int32(p), 0)
	}
	eligible := []uint64{^uint64(0)}
	buf := make([]WindowEvent, 0, spinners)
	commit := func() {
		set := e.ScanWindow(EvFault, 0, eligible, buf[:0])
		for i := range set {
			set[i].When += 10 * spinners
		}
		e.FinishWindow(set)
	}
	commit()
	if e.Steps() != spinners || e.Pending() != spinners {
		t.Fatalf("window committed %d pops leaving %d pending, want %d and %d", e.Steps(), e.Pending(), spinners, spinners)
	}
	if a := testing.AllocsPerRun(100, commit); a != 0 {
		t.Errorf("window commit allocated %.1f times", a)
	}
}
