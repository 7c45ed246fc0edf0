package fault

import (
	"reflect"
	"testing"
)

func TestBuilderAccumulates(t *testing.T) {
	p := NewPlan("b").
		WithStall(1, 10, 20).
		WithCrash(2, 30).
		WithDegrade(0, 5, 15, 4)
	if p.Name() != "b" {
		t.Errorf("name = %q", p.Name())
	}
	if p.Empty() {
		t.Error("plan with entries reports Empty")
	}
	if got := p.Stalls(); len(got) != 1 || got[0] != (Stall{Proc: 1, Start: 10, End: 20}) {
		t.Errorf("stalls = %+v", got)
	}
	if got := p.Crashes(); len(got) != 1 || got[0] != (Crash{Proc: 2, At: 30}) {
		t.Errorf("crashes = %+v", got)
	}
	if got := p.Degrades(); len(got) != 1 || got[0] != (Degrade{Module: 0, Start: 5, End: 15, Factor: 4}) {
		t.Errorf("degrades = %+v", got)
	}
}

func TestNilPlanIsEmpty(t *testing.T) {
	var p *Plan
	if !p.Empty() {
		t.Error("nil plan should be Empty")
	}
	if p.Name() != "none" {
		t.Errorf("nil plan name = %q", p.Name())
	}
	if !NewPlan("x").Empty() {
		t.Error("fresh plan should be Empty")
	}
}

// TestGenerateDeterministic: same seed and spec give identical plans;
// a different seed gives a different one. Plans are pure data, so a
// config carrying a generated plan stays reproducible end to end.
func TestGenerateDeterministic(t *testing.T) {
	sp := Spec{Procs: 8, Horizon: 10000,
		Stalls: 5, Crashes: 2, Degrades: 3, FactorMax: 6}
	a := Generate("g", 42, sp)
	b := Generate("g", 42, sp)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
	c := Generate("g", 43, sp)
	if reflect.DeepEqual(a.Stalls(), c.Stalls()) && reflect.DeepEqual(a.Crashes(), c.Crashes()) {
		t.Error("different seeds drew identical plans")
	}
}

// TestGenerateRespectsSpec: counts, ranges, and the at-least-one-
// survivor clamp on crashes.
func TestGenerateRespectsSpec(t *testing.T) {
	sp := Spec{Procs: 4, Horizon: 5000,
		Stalls: 6, StallMin: 100, StallMax: 300,
		Crashes:  9, // over-asks: must clamp to Procs-1
		Degrades: 4, DegradeMin: 200, DegradeMax: 400, FactorMax: 5}
	p := Generate("spec", 7, sp)
	if got := len(p.Stalls()); got != 6 {
		t.Errorf("stalls: got %d, want 6", got)
	}
	for _, s := range p.Stalls() {
		if s.Proc < 0 || s.Proc >= 4 {
			t.Errorf("stall proc %d out of range", s.Proc)
		}
		if l := s.End - s.Start; l < 100 || l > 300 {
			t.Errorf("stall length %d outside [100, 300]", l)
		}
		if s.Start < 0 || s.Start >= 5000 {
			t.Errorf("stall start %d outside horizon", s.Start)
		}
	}
	if got := len(p.Crashes()); got != 3 {
		t.Errorf("crashes: got %d, want Procs-1 = 3", got)
	}
	seen := map[int]bool{}
	for _, c := range p.Crashes() {
		if seen[c.Proc] {
			t.Errorf("processor %d crashed twice", c.Proc)
		}
		seen[c.Proc] = true
		if c.At < 0 || c.At >= 5000 {
			t.Errorf("crash time %d outside horizon", c.At)
		}
	}
	if got := len(p.Degrades()); got != 4 {
		t.Errorf("degrades: got %d, want 4", got)
	}
	for _, d := range p.Degrades() {
		if d.Module < 0 || d.Module >= 4 {
			t.Errorf("degrade module %d out of range", d.Module)
		}
		if d.Factor < 2 || d.Factor > 5 {
			t.Errorf("degrade factor %d outside [2, 5]", d.Factor)
		}
		if l := d.End - d.Start; l < 200 || l > 400 {
			t.Errorf("degrade length %d outside [200, 400]", l)
		}
	}
}

// TestGenerateZeroCounts: a spec asking for nothing generates an empty
// (and therefore inert) plan.
func TestGenerateZeroCounts(t *testing.T) {
	p := Generate("zero", 1, Spec{Procs: 8, Horizon: 1000})
	if !p.Empty() {
		t.Errorf("zero-count spec generated %d/%d/%d entries",
			len(p.Stalls()), len(p.Crashes()), len(p.Degrades()))
	}
}
