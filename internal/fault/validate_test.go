package fault

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// Edge specs: every degenerate field Validate guards must come back as
// a *SpecError naming the field, and Generate must refuse to draw from
// it.
func TestSpecValidateRejectsDegenerate(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		field string
	}{
		{"negative procs", Spec{Procs: -1}, "Procs"},
		{"negative horizon", Spec{Procs: 4, Horizon: -5}, "Horizon"},
		{"negative stall count", Spec{Procs: 4, Stalls: -1}, "Stalls"},
		{"negative crash count", Spec{Procs: 4, Crashes: -3}, "Crashes"},
		{"negative restart count", Spec{Procs: 4, Restarts: -1}, "Restarts"},
		{"negative degrade count", Spec{Procs: 4, Degrades: -1}, "Degrades"},
		{"negative stall bound", Spec{Procs: 4, Stalls: 1, StallMin: -10}, "StallMin/StallMax"},
		{"inverted stall range", Spec{Procs: 4, Stalls: 1, StallMin: 500, StallMax: 100}, "StallMax"},
		{"restarts exceed crashes", Spec{Procs: 8, Crashes: 1, Restarts: 2}, "Restarts"},
		{"negative restart delay", Spec{Procs: 8, Crashes: 2, Restarts: 1, RestartDelayMin: -1}, "RestartDelayMin/RestartDelayMax"},
		{"inverted restart delay", Spec{Procs: 8, Crashes: 2, Restarts: 1, RestartDelayMin: 900, RestartDelayMax: 400}, "RestartDelayMax"},
		{"negative degrade bound", Spec{Procs: 4, Degrades: 1, DegradeMax: -7}, "DegradeMin/DegradeMax"},
		{"inverted degrade range", Spec{Procs: 4, Degrades: 1, DegradeMin: 300, DegradeMax: 200}, "DegradeMax"},
		{"no-op factor", Spec{Procs: 4, Degrades: 1, FactorMax: 1}, "FactorMax"},
		{"negative factor", Spec{Procs: 4, Degrades: 1, FactorMax: -4}, "FactorMax"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the spec", tc.name)
			continue
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Errorf("%s: error is %T, want *SpecError", tc.name, err)
			continue
		}
		if se.Field != tc.field {
			t.Errorf("%s: flagged field %q, want %q", tc.name, se.Field, tc.field)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Generate did not panic", tc.name)
				}
			}()
			Generate("bad", 1, tc.spec)
		}()
	}
}

// Well-formed specs — including the documented clamps and default
// ranges — pass.
func TestSpecValidateAcceptsClampsAndDefaults(t *testing.T) {
	ok := []Spec{
		{},
		{Procs: 4, Horizon: 5000, Stalls: 2, Crashes: 9}, // over-ask clamps
		{Procs: 4, Crashes: 2, Restarts: 2},
		{Procs: 4, Stalls: 3, StallMin: 100}, // open-ended max: default applies
		{Procs: 4, Degrades: 2, FactorMax: 0},
	}
	for i, sp := range ok {
		if err := sp.Validate(); err != nil {
			t.Errorf("spec %d: Validate rejected a well-formed spec: %v", i, err)
		}
	}
}

// Restart draws ride the same private stream AFTER the crash draws: a
// Restarts: 0 spec must generate bit-identical stall/crash/degrade
// entries to one that never heard of restarts, so pre-recovery callers
// see unchanged plans.
func TestGenerateRestartsPreserveStream(t *testing.T) {
	base := Spec{Procs: 8, Horizon: 10000,
		Stalls: 4, Crashes: 3, Degrades: 2, FactorMax: 6}
	withR := base
	withR.Restarts = 2
	withR.RestartDelayMin = 500
	withR.RestartDelayMax = 1500

	a := Generate("plain", 99, base)
	b := Generate("plain", 99, withR)
	if !reflect.DeepEqual(a.Stalls(), b.Stalls()) {
		t.Errorf("restart draws perturbed stalls:\n  %+v\n  %+v", a.Stalls(), b.Stalls())
	}
	if !reflect.DeepEqual(a.Crashes(), b.Crashes()) {
		t.Errorf("restart draws perturbed crashes:\n  %+v\n  %+v", a.Crashes(), b.Crashes())
	}
	if len(a.Restarts()) != 0 {
		t.Errorf("Restarts: 0 spec drew %d restarts", len(a.Restarts()))
	}
	if got := len(b.Restarts()); got != 2 {
		t.Fatalf("restarts: got %d, want 2", got)
	}
	for i, r := range b.Restarts() {
		c := b.Crashes()[i]
		if r.Proc != c.Proc {
			t.Errorf("restart %d rebirths P%d, want crash victim P%d", i, r.Proc, c.Proc)
		}
		if d := r.At - c.At; d < 500 || d > 1500 {
			t.Errorf("restart %d delay %d outside [500, 1500]", i, d)
		}
	}
	if err := b.Validate(); err != nil {
		t.Errorf("generated plan fails Validate: %v", err)
	}
}

// Restart clamp: asking for as many restarts as (over-asked) crashes
// rebirths exactly the drawn victims.
func TestGenerateRestartClampFollowsCrashClamp(t *testing.T) {
	p := Generate("clamp", 3, Spec{Procs: 4, Horizon: 4000, Crashes: 4, Restarts: 4})
	if got := len(p.Crashes()); got != 3 {
		t.Fatalf("crashes: got %d, want Procs-1 = 3", got)
	}
	if got := len(p.Restarts()); got != 3 {
		t.Errorf("restarts: got %d, want 3 (clamped with crashes)", got)
	}
}

// Plan.Validate: structural consistency, including the
// restart-needs-an-earlier-crash rule.
func TestPlanValidate(t *testing.T) {
	if err := (*Plan)(nil).Validate(); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	good := NewPlan("ok").
		WithStall(1, 10, 20).
		WithCrash(2, 30).
		WithRestart(2, 90).
		WithDegrade(0, 5, 15, 4)
	if err := good.Validate(); err != nil {
		t.Errorf("well-formed plan rejected: %v", err)
	}

	cases := []struct {
		name string
		plan *Plan
		kind string
	}{
		{"empty stall", NewPlan("x").WithStall(0, 50, 50), "stall"},
		{"negative stall proc", NewPlan("x").WithStall(-1, 0, 10), "stall"},
		{"negative crash time", NewPlan("x").WithCrash(0, -5), "crash"},
		{"restart without crash", NewPlan("x").WithRestart(0, 100), "restart"},
		{"restart before crash", NewPlan("x").WithCrash(0, 200).WithRestart(0, 100), "restart"},
		{"restart of other proc", NewPlan("x").WithCrash(1, 50).WithRestart(0, 100), "restart"},
		{"no-op degrade", NewPlan("x").WithDegrade(0, 5, 15, 1), "degrade"},
		{"empty degrade", NewPlan("x").WithDegrade(0, 15, 15, 4), "degrade"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted the plan", tc.name)
			continue
		}
		var pe *PlanError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error is %T, want *PlanError", tc.name, err)
			continue
		}
		if pe.Kind != tc.kind {
			t.Errorf("%s: flagged kind %q, want %q", tc.name, pe.Kind, tc.kind)
		}
		if !strings.Contains(err.Error(), tc.kind) {
			t.Errorf("%s: error string %q does not name the entry kind", tc.name, err)
		}
	}
}
