package sim

import (
	"errors"
	"slices"
	"testing"
)

// FuzzEngineOrder drives random sequences of AtEvent, StepPayload,
// RunUntil, PurgePending, ScanWindow+FinishWindow and Reset against a
// reference model that keeps its pending events in one sorted slice,
// and requires the engine to agree with it after every operation: pop
// order and payloads, Now, Seq, Steps, PopBudget, Pending, the next
// event, the overflow count, each scanned window, and RunUntil's
// step-limit error. Plain `go test` runs the seed corpus.
func FuzzEngineOrder(f *testing.F) {
	for _, seed := range orderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		runOrderProgram(t, prog)
	})
}

// Program opcodes (the low three bits of an op byte). Each op reads its
// operand bytes from the program; a missing operand reads as zero.
const (
	opPush  = iota // operands: time class, payload
	opPush2        // same as opPush: pushes dominate real schedules
	opPop
	opRunUntil // operand: time class of the deadline
	opPurge    // operand: payload selector
	opWindow   // operands: anchor, eligible mask, flags, one time class per member
	opReset
	opPeek // no operation: the comparison after every op peeks
)

// orderSeeds are hand-written programs covering the queue's edges:
// same-instant bursts, past-time clamps, pushes at span−1, at span and
// far beyond it, an overflow event tied with a calendar event, windows
// that stop at another event or at the overflow top, and retimes that
// share an instant with a pending event, collide with each other, or
// cross into the overflow.
func orderSeeds() [][]byte {
	push := func(class, off, payload byte) []byte { return []byte{opPush, class<<5 | off, payload} }
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	var burst, clamp, span, window, overflow, late, tie, purge []byte
	for i := byte(0); i < 12; i++ {
		burst = cat(burst, push(1, 0, i&7|1<<4))
	}
	burst = cat(burst, []byte{opPop, opPop, opPop}, push(1, 0, 3), []byte{opRunUntil, 0<<5 | 4})
	clamp = cat(push(0, 9, 0), push(0, 3, 1), []byte{opPop}, push(2, 5, 2), push(2, 0, 3), []byte{opPop, opPop, opPop})
	span = cat(push(3, 0, 0), push(4, 0, 1), push(5, 3, 2), push(3, 2, 3), push(4, 1, 4), push(0, 1, 5),
		[]byte{opPop, opPop, opPeek, opRunUntil, 3<<5 | 0, opPop, opPop, opPop})
	// Five window candidates on word 0 (kind 1, EvFault, is bits 4-5 =
	// 01; the engine reads a kind only as a tag), a dispatch, then a
	// window retiming the candidates past it, the first two onto one
	// empty instant.
	for i := byte(0); i < 5; i++ {
		window = cat(window, push(0, 2+i, i|1<<4))
	}
	window = cat(window, push(0, 20, 7), push(0, 25, 5|1<<4),
		[]byte{opWindow, 0, 0xff, 0, 0<<5 | 30, 0<<5 | 30, 6<<5 | 1, 6<<5 | 2, 6<<5 | 3},
		[]byte{opPop, opPop, opPeek, opPurge, 2, opPop})
	// Six probes, a dispatch at 873 and a probe beyond the span. The
	// window drops its last member and retimes the rest: one past the
	// span, three onto the dispatch's instant (each queued behind it),
	// one just inside the span. A second window commits the dropped
	// probe alone.
	for i := byte(0); i < 6; i++ {
		overflow = cat(overflow, push(0, 1+i, i|1<<4))
	}
	overflow = cat(overflow, push(6, 9, 7), push(5, 0, 6|1<<4),
		[]byte{opWindow, 0, 0xff, 1, 4<<5 | 0, 6<<5 | 9, 6<<5 | 9, 6<<5 | 9, 3<<5 | 0},
		[]byte{opWindow, 0, 0xff, 0, 7<<5 | 31},
		[]byte{opRunUntil, 7<<5 | 31, opRunUntil, 5<<5 | 7, opPop, opPop})
	// An overflow probe that comes due before a later calendar probe:
	// the scan must stop at the heap's top between two calendar events.
	late = cat(push(4, 5, 0|1<<4), push(0, 10, 7|1<<4), []byte{opPop},
		push(3, 0, 1|1<<4), push(0, 5, 2|1<<4),
		[]byte{opWindow, 0, 0xff, 0, 0<<5 | 20, opPop, opPop, opPop, opPop})
	// Two events on one instant, the earlier-scheduled one pushed beyond
	// the span and the later one, after the clock moved, into the
	// calendar: the heap's event must fire first.
	tie = cat(push(0, 1, 0), push(4, 0, 1), []byte{opPop}, push(3, 0, 2), []byte{opPeek, opPop, opPop})
	for i := byte(0); i < 16; i++ {
		purge = cat(purge, push(i%8, i, i))
	}
	purge = cat(purge, []byte{opPurge, 4, opPop, opPurge, 8 | 1<<4 | 1, opPurge, 5, opReset},
		push(0, 4, 1), []byte{opPop})
	limited := cat([]byte{0x01}, burst) // odd first byte: a 9-step budget
	return [][]byte{
		cat([]byte{0}, burst), cat([]byte{0}, clamp), cat([]byte{0}, span),
		cat([]byte{0}, window), cat([]byte{0}, overflow), cat([]byte{0}, late), cat([]byte{0}, tie),
		cat([]byte{0}, purge), limited,
	}
}

// modelEv is one pending event of the reference model; ovf records
// whether the engine must hold it in the overflow heap (due calSpan or
// more cycles after the clock when it was pushed or retimed).
type modelEv struct {
	when       Time
	seq        uint64
	kind       EventKind
	arg0, arg1 int32
	ovf        bool
}

func (a modelEv) before(b modelEv) bool {
	return a.when < b.when || (a.when == b.when && a.seq < b.seq)
}

// orderModel is the reference: a slice sorted by (when, seq).
type orderModel struct {
	now                   Time
	seq, steps, work, max uint64
	ovfPushes             uint64
	evs                   []modelEv
}

func (m *orderModel) insert(ev modelEv) {
	if ev.when < m.now {
		ev.when = m.now
	}
	ev.ovf = ev.when-m.now >= calSpan
	if ev.ovf {
		m.ovfPushes++
	}
	i, _ := slices.BinarySearchFunc(m.evs, ev, func(a, b modelEv) int {
		if a.before(b) {
			return -1
		}
		return 1
	})
	m.evs = slices.Insert(m.evs, i, ev)
}

func (m *orderModel) pop() modelEv {
	ev := m.evs[0]
	m.evs = m.evs[1:]
	m.now = ev.when
	m.steps++
	m.work++
	return ev
}

func (m *orderModel) popBudget() uint64 {
	if m.work >= m.max {
		return 0
	}
	return m.max - m.work
}

// orderTime decodes a time-class byte into an absolute time relative to
// now: the top three bits pick the class, the low five an offset.
func orderTime(now Time, b byte) Time {
	v := Time(b & 31)
	switch b >> 5 {
	case 0:
		return now + v
	case 1:
		return now // same instant
	case 2:
		return now - 1 - v // in the past: clamps to now
	case 3:
		return now + calSpan - 1 - v%4 // just inside the span
	case 4:
		return now + calSpan + v%4 // just beyond it
	case 5:
		return now + calSpan*(2+v) // far beyond
	case 6:
		return now + 97*v
	default:
		return now + 2048*v // spread across the span
	}
}

func runOrderProgram(t *testing.T, prog []byte) {
	if len(prog) > 4096 {
		prog = prog[:4096]
	}
	e := NewEngine()
	m := &orderModel{max: DefaultMaxSteps}
	if len(prog) > 0 && prog[0]&1 == 1 {
		m.max = uint64(prog[0]>>1) + 8
		e.SetMaxSteps(m.max)
	}
	var fired []modelEv
	e.SetHandler(func(kind EventKind, arg0, arg1 int32) {
		fired = append(fired, modelEv{when: e.Now(), kind: kind, arg0: arg0, arg1: arg1})
	})
	pc := 1
	next := func() byte {
		if pc >= len(prog) {
			return 0
		}
		pc++
		return prog[pc-1]
	}
	var buf []WindowEvent
	for step := 0; pc < len(prog); step++ {
		op := next() & 7
		switch op {
		case opPush, opPush2:
			when, p := orderTime(e.Now(), next()), next()
			kind, arg0, arg1 := EventKind(p>>4&3), int32(p&7), int32(p>>6&1)
			m.seq++
			m.insert(modelEv{when: when, seq: m.seq, kind: kind, arg0: arg0, arg1: arg1})
			e.AtEvent(when, kind, arg0, arg1)
		case opPop:
			kind, arg0, arg1, ok := e.StepPayload()
			if ok != (len(m.evs) > 0) {
				t.Fatalf("step %d: StepPayload fired=%v with %d model events", step, ok, len(m.evs))
			}
			if ok {
				want := m.pop()
				if kind != want.kind || arg0 != want.arg0 || arg1 != want.arg1 {
					t.Fatalf("step %d: popped (%d, %d, %d), model (%d, %d, %d) at %d",
						step, kind, arg0, arg1, want.kind, want.arg0, want.arg1, want.when)
				}
			}
		case opRunUntil:
			deadline := orderTime(e.Now(), next())
			fired = fired[:0]
			err := e.RunUntil(deadline)
			var want []modelEv
			var wantErr bool
			for len(m.evs) > 0 && m.evs[0].when <= deadline {
				ev := m.pop()
				ev.seq, ev.ovf = 0, false
				want = append(want, ev)
				if m.work > m.max {
					wantErr = true
					break
				}
			}
			if !wantErr && m.now < deadline {
				m.now = deadline
			}
			if errors.Is(err, ErrStepLimit) != wantErr || (err != nil && !wantErr) {
				t.Fatalf("step %d: RunUntil(%d) = %v, model step-limit error %v", step, deadline, err, wantErr)
			}
			if !slices.Equal(fired, want) {
				t.Fatalf("step %d: RunUntil(%d) fired %v, model %v", step, deadline, fired, want)
			}
		case opPurge:
			sel := next()
			match := func(kind EventKind, arg0 int32) bool {
				return arg0 == int32(sel&7) || (sel&8 != 0 && kind == EventKind(sel>>4&3))
			}
			got := e.PurgePending(func(ev PendingEvent) bool { return match(ev.Kind, ev.Arg0) })
			want := len(m.evs)
			m.evs = slices.DeleteFunc(m.evs, func(ev modelEv) bool { return match(ev.kind, ev.arg0) })
			if want -= len(m.evs); got != want {
				t.Fatalf("step %d: PurgePending removed %d, model %d", step, got, want)
			}
		case opWindow:
			anchor, mask, flags := int32(next()&1), next(), next()
			set := e.ScanWindow(EvFault, anchor, []uint64{uint64(mask)}, buf[:0])
			buf = set
			k := 0
			for k < len(m.evs) {
				ev := m.evs[k]
				if ev.ovf || ev.kind != EvFault || ev.arg1 != anchor || mask&(1<<ev.arg0) == 0 {
					break
				}
				k++
			}
			if len(set) != k {
				t.Fatalf("step %d: ScanWindow = %d events; model %d events of %v", step, len(set), k, m.evs)
			}
			for i := range set {
				if w := m.evs[i]; set[i].When != w.when || set[i].Arg0 != w.arg0 {
					t.Fatalf("step %d: window event %d = %+v, model %+v", step, i, set[i], w)
				}
			}
			// Commit a prefix (flags bit 0 drops the last member); the
			// engine numbers it m.seq+1, m.seq+2, ... in set order.
			if flags&1 == 1 && k > 0 {
				k--
			}
			if k == 0 || uint64(k) > e.PopBudget() {
				break
			}
			set = set[:k]
			taken := slices.Clone(m.evs[:k])
			m.evs = m.evs[k:]
			for i := range set {
				set[i].When = orderTime(e.Now(), next())
				m.seq++
				ev := taken[i]
				ev.when, ev.seq = set[i].When, m.seq
				m.insert(ev)
			}
			m.steps += uint64(k)
			m.work += uint64(k)
			e.FinishWindow(set)
		case opReset:
			e.Reset()
			m.now, m.seq, m.steps, m.work, m.ovfPushes, m.evs = 0, 0, 0, 0, 0, m.evs[:0]
		}
		compareOrder(t, step, e, m)
	}
	// Drain: the whole remaining queue must pop in model order.
	for len(m.evs) > 0 {
		want := m.pop()
		kind, arg0, arg1, ok := e.StepPayload()
		if !ok || kind != want.kind || arg0 != want.arg0 || arg1 != want.arg1 || e.Now() != want.when {
			t.Fatalf("drain: popped (%d, %d, %d, %v) at %d, model %+v", kind, arg0, arg1, ok, e.Now(), want)
		}
	}
	compareOrder(t, -1, e, m)
}

// compareOrder checks every observable counter and the next event.
func compareOrder(t *testing.T, step int, e *Engine, m *orderModel) {
	t.Helper()
	if e.Now() != m.now || e.Seq() != m.seq || e.Steps() != m.steps || e.PopBudget() != m.popBudget() ||
		e.Pending() != len(m.evs) || e.OverflowPushes() != m.ovfPushes {
		t.Fatalf("step %d: Now/Seq/Steps/PopBudget/Pending/OverflowPushes = %d/%d/%d/%d/%d/%d, model %d/%d/%d/%d/%d/%d",
			step, e.Now(), e.Seq(), e.Steps(), e.PopBudget(), e.Pending(), e.OverflowPushes(),
			m.now, m.seq, m.steps, m.popBudget(), len(m.evs), m.ovfPushes)
	}
	when, ok := e.NextTime()
	kind, arg0, arg1, pok := e.NextPeek()
	if ok != (len(m.evs) > 0) || pok != ok {
		t.Fatalf("step %d: NextTime/NextPeek ok = %v/%v with %d model events", step, ok, pok, len(m.evs))
	}
	if ok {
		w := m.evs[0]
		if when != w.when || kind != w.kind || arg0 != w.arg0 || arg1 != w.arg1 {
			t.Fatalf("step %d: next event (%d, %d, %d, %d), model %+v", step, when, kind, arg0, arg1, w)
		}
	}
}
