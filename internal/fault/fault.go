// Package fault describes deterministic fault plans for the simulated
// machine: processor stalls (preemption windows), processor crashes
// (with optional restarts — the crash-recovery model), and transient
// memory-module degradation intervals.
//
// A Plan is pure data. It draws nothing at simulation time — a plan is
// either built explicitly (NewPlan().WithStall(...)...) or generated
// up front by Generate from a seed on its own RNG stream, independent
// of every algorithm and machine stream. The same plan attached to the
// same machine.Config therefore yields bit-identical runs. A machine
// with a plan forms no spin windows, so its windows on/off A/B
// invariant (the same Stats either way) holds under any plan, whatever
// kinds of fault it carries.
//
// Entries that do not apply to a given machine — a processor index at
// or above Procs, a module index at or above the topology's module
// count, an empty interval (End <= Start), or a degrade factor <= 1 —
// are inert: the machine skips them when it compiles the plan, so one
// plan can be reused across machine sizes.
package fault

import (
	"fmt"

	"repro/internal/sim"
)

// Stall suspends event delivery to one processor for [Start, End):
// every dispatch addressed to the processor inside the window is
// retimed to End. It models an OS preemption of the thread
// pinned to that processor — memory the processor holds stays held,
// in-flight operations complete, but it makes no forward progress
// until the window closes.
type Stall struct {
	Proc       int
	Start, End sim.Time
}

// Crash removes a processor at time At. Its pending events are
// dropped, and any words it holds are never released — the survivors'
// behavior under that loss is the point. Without a matching Restart
// entry the crash is permanent (fail-stop); with one, the processor is
// reborn at the restart instant with reset proc-local state.
type Crash struct {
	Proc int
	At   sim.Time
}

// Restart rebirths a crashed processor at time At: the machine
// re-registers it at the recovery entry point (the top of its program
// body) with fresh proc-local state — spin state, watch registrations,
// and the derived RNG stream all reset as at boot. Nothing is released
// on its behalf: words the dead incarnation held stay held until some
// protocol reclaims them. A Restart with no earlier Crash of the same
// processor is inert.
type Restart struct {
	Proc int
	At   sim.Time
}

// Degrade scales one memory module's traversal cost by Factor for
// [Start, End): a slow link, a contended router port, a thermal
// throttle. Only the network-traversal term is scaled, and only on
// module-based (Modules discipline) topologies; local references and
// bus machines are unaffected.
type Degrade struct {
	Module     int
	Start, End sim.Time
	Factor     int
}

// Plan is an immutable fault schedule. Build one with NewPlan and the
// With* methods (which mutate and return the same plan, builder
// style), or draw one with Generate. Attach it via
// machine.Config.Faults; the machine treats the entry slices as
// read-only, so a plan may be shared across machines and runs.
type Plan struct {
	name     string
	stalls   []Stall
	crashes  []Crash
	restarts []Restart
	degrades []Degrade
}

// NewPlan returns an empty named plan.
func NewPlan(name string) *Plan { return &Plan{name: name} }

// WithStall appends a stall window.
func (p *Plan) WithStall(proc int, start, end sim.Time) *Plan {
	p.stalls = append(p.stalls, Stall{Proc: proc, Start: start, End: end})
	return p
}

// WithCrash appends a permanent processor crash.
func (p *Plan) WithCrash(proc int, at sim.Time) *Plan {
	p.crashes = append(p.crashes, Crash{Proc: proc, At: at})
	return p
}

// WithRestart appends a processor rebirth. It only takes effect when
// the plan also crashes the same processor at an earlier instant.
func (p *Plan) WithRestart(proc int, at sim.Time) *Plan {
	p.restarts = append(p.restarts, Restart{Proc: proc, At: at})
	return p
}

// WithDegrade appends a module degradation interval.
func (p *Plan) WithDegrade(module int, start, end sim.Time, factor int) *Plan {
	p.degrades = append(p.degrades, Degrade{Module: module, Start: start, End: end, Factor: factor})
	return p
}

// Name returns the plan's label (used in experiment tables and test
// names).
func (p *Plan) Name() string {
	if p == nil {
		return "none"
	}
	return p.name
}

// Empty reports whether the plan schedules no faults at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.stalls) == 0 && len(p.crashes) == 0 &&
		len(p.restarts) == 0 && len(p.degrades) == 0)
}

// Stalls returns the stall entries. Callers must not mutate.
func (p *Plan) Stalls() []Stall { return p.stalls }

// Crashes returns the crash entries. Callers must not mutate.
func (p *Plan) Crashes() []Crash { return p.crashes }

// Restarts returns the restart entries. Callers must not mutate.
func (p *Plan) Restarts() []Restart { return p.restarts }

// Degrades returns the degrade entries. Callers must not mutate.
func (p *Plan) Degrades() []Degrade { return p.degrades }

// PlanError is the typed error Plan.Validate returns: one inconsistent
// entry, identified by kind and position.
type PlanError struct {
	Kind   string // "stall", "crash", "restart", "degrade"
	Index  int
	Reason string
}

func (e *PlanError) Error() string {
	return fmt.Sprintf("fault: plan %s[%d]: %s", e.Kind, e.Index, e.Reason)
}

// Validate checks a plan for internal consistency: non-negative
// indices and times, non-empty intervals, degrade factors >= 2, and —
// the crash-recovery rule — every restart paired with an earlier crash
// of the same processor. Entries that are merely inert on a given
// machine shape (an index beyond that machine's size) are fine;
// validation is machine-independent. The machine never calls this —
// attaching an unvalidated plan keeps the documented skip-inert
// semantics — and neither do the harness or cmd paths: their plans are
// empty (the fault-free level) or drawn by Generate, which validates
// the Spec (Spec.Validate) and only ever draws plans that pass.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, s := range p.stalls {
		switch {
		case s.Proc < 0:
			return &PlanError{Kind: "stall", Index: i, Reason: "negative processor index"}
		case s.Start < 0:
			return &PlanError{Kind: "stall", Index: i, Reason: "negative start"}
		case s.End <= s.Start:
			return &PlanError{Kind: "stall", Index: i, Reason: fmt.Sprintf("empty interval [%d, %d)", s.Start, s.End)}
		}
	}
	for i, c := range p.crashes {
		switch {
		case c.Proc < 0:
			return &PlanError{Kind: "crash", Index: i, Reason: "negative processor index"}
		case c.At < 0:
			return &PlanError{Kind: "crash", Index: i, Reason: "negative instant"}
		}
	}
	for i, r := range p.restarts {
		if r.Proc < 0 {
			return &PlanError{Kind: "restart", Index: i, Reason: "negative processor index"}
		}
		ok := false
		for _, c := range p.crashes {
			if c.Proc == r.Proc && c.At < r.At {
				ok = true
				break
			}
		}
		if !ok {
			return &PlanError{Kind: "restart", Index: i,
				Reason: fmt.Sprintf("processor %d has no crash before t=%d to recover from", r.Proc, r.At)}
		}
	}
	for i, d := range p.degrades {
		switch {
		case d.Module < 0:
			return &PlanError{Kind: "degrade", Index: i, Reason: "negative module index"}
		case d.Start < 0:
			return &PlanError{Kind: "degrade", Index: i, Reason: "negative start"}
		case d.End <= d.Start:
			return &PlanError{Kind: "degrade", Index: i, Reason: fmt.Sprintf("empty interval [%d, %d)", d.Start, d.End)}
		case d.Factor < 2:
			return &PlanError{Kind: "degrade", Index: i, Reason: fmt.Sprintf("factor %d is a no-op", d.Factor)}
		}
	}
	return nil
}

// Spec sizes a generated plan. Zero counts mean none of that fault
// kind; zero interval bounds fall back to sensible defaults relative
// to Horizon.
type Spec struct {
	// Procs bounds the processor and module indices drawn (a machine
	// has one memory module per processor); no fault is drawn unless
	// it is > 0.
	Procs int
	// Horizon is the time span faults are drawn in: starts land in
	// [0, Horizon).
	Horizon sim.Time

	// Stalls is the number of stall windows to draw; their lengths are
	// uniform in [StallMin, StallMax] (defaults Horizon/50, Horizon/10).
	Stalls   int
	StallMin sim.Time
	StallMax sim.Time

	// Crashes is the number of distinct processors to crash. It is
	// clamped to Procs-1 so at least one processor survives.
	Crashes int

	// Restarts is how many of the crashed processors come back
	// (clamped to the drawn crash count): the first Restarts crash
	// victims in draw order are reborn a uniform delay in
	// [RestartDelayMin, RestartDelayMax] after their crash instant
	// (same defaults as stall lengths).
	Restarts        int
	RestartDelayMin sim.Time
	RestartDelayMax sim.Time

	// Degrades is the number of module-degradation intervals; their
	// lengths are uniform in [DegradeMin, DegradeMax] (same defaults as
	// stalls) and factors uniform in [2, FactorMax] (default 8).
	Degrades   int
	DegradeMin sim.Time
	DegradeMax sim.Time
	FactorMax  int
}

// SpecError is the typed error Spec.Validate returns: one degenerate
// field and why it was rejected.
type SpecError struct {
	Field  string
	Reason string
}

func (e *SpecError) Error() string {
	return "fault: spec." + e.Field + ": " + e.Reason
}

// Validate rejects degenerate specs with a *SpecError: negative counts
// or times, inverted interval ranges (a stall/degrade length range
// with Max set below Min would otherwise silently produce zero-length
// or default-length intervals), a degrade FactorMax of 1 (a no-op
// factor), and more Restarts than Crashes. Over-asked crash counts are
// NOT an error: Generate clamps Crashes to Procs-1 (at least one
// survivor) and Restarts to the drawn crash count, and both clamps are
// documented behavior.
func (sp Spec) Validate() error {
	if sp.Procs < 0 {
		return &SpecError{Field: "Procs", Reason: "negative"}
	}
	if sp.Horizon < 0 {
		return &SpecError{Field: "Horizon", Reason: "negative"}
	}
	if sp.Stalls < 0 {
		return &SpecError{Field: "Stalls", Reason: "negative count"}
	}
	if sp.Crashes < 0 {
		return &SpecError{Field: "Crashes", Reason: "negative count"}
	}
	if sp.Restarts < 0 {
		return &SpecError{Field: "Restarts", Reason: "negative count"}
	}
	if sp.Degrades < 0 {
		return &SpecError{Field: "Degrades", Reason: "negative count"}
	}
	if sp.StallMin < 0 || sp.StallMax < 0 {
		return &SpecError{Field: "StallMin/StallMax", Reason: "negative bound"}
	}
	if sp.Stalls > 0 && sp.StallMax > 0 && sp.StallMax < sp.StallMin {
		return &SpecError{Field: "StallMax",
			Reason: fmt.Sprintf("%d below StallMin %d: empty length range", sp.StallMax, sp.StallMin)}
	}
	if sp.Restarts > sp.Crashes {
		return &SpecError{Field: "Restarts",
			Reason: fmt.Sprintf("%d exceeds Crashes %d: nothing to recover", sp.Restarts, sp.Crashes)}
	}
	if sp.RestartDelayMin < 0 || sp.RestartDelayMax < 0 {
		return &SpecError{Field: "RestartDelayMin/RestartDelayMax", Reason: "negative bound"}
	}
	if sp.Restarts > 0 && sp.RestartDelayMax > 0 && sp.RestartDelayMax < sp.RestartDelayMin {
		return &SpecError{Field: "RestartDelayMax",
			Reason: fmt.Sprintf("%d below RestartDelayMin %d: empty delay range", sp.RestartDelayMax, sp.RestartDelayMin)}
	}
	if sp.DegradeMin < 0 || sp.DegradeMax < 0 {
		return &SpecError{Field: "DegradeMin/DegradeMax", Reason: "negative bound"}
	}
	if sp.Degrades > 0 && sp.DegradeMax > 0 && sp.DegradeMax < sp.DegradeMin {
		return &SpecError{Field: "DegradeMax",
			Reason: fmt.Sprintf("%d below DegradeMin %d: empty length range", sp.DegradeMax, sp.DegradeMin)}
	}
	if sp.FactorMax == 1 || sp.FactorMax < 0 {
		return &SpecError{Field: "FactorMax",
			Reason: fmt.Sprintf("%d cannot scale anything (want 0 for the default, or >= 2)", sp.FactorMax)}
	}
	return nil
}

// Generate draws a plan from its own splitmix64 stream seeded by seed.
// The stream is private to the plan: generating a plan consumes no
// draws from any machine or processor RNG, so adding faults to a
// config perturbs nothing else about the run. A spec with Restarts: 0
// consumes exactly the draws it did before restarts existed, so plans
// generated by older callers are bit-identical.
//
// Generate panics with the *SpecError for specs Validate rejects;
// fault plans are experiment configuration, and a degenerate spec is a
// programming error on par with a bad machine.Config.
func Generate(name string, seed uint64, sp Spec) *Plan {
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	p := NewPlan(name)
	rng := sim.NewRNG(seed)
	horizon := sp.Horizon
	if horizon <= 0 {
		horizon = 1 << 20
	}
	spanIn := func(min, max sim.Time, defMin, defMax sim.Time) sim.Time {
		if min <= 0 {
			min = defMin
		}
		if max < min {
			max = defMax
		}
		if max < min {
			max = min
		}
		return min + rng.Time(max-min+1)
	}
	defMin, defMax := horizon/50+1, horizon/10+1

	if sp.Procs > 0 {
		for i := 0; i < sp.Stalls; i++ {
			proc := rng.Intn(sp.Procs)
			start := rng.Time(horizon)
			length := spanIn(sp.StallMin, sp.StallMax, defMin, defMax)
			p.WithStall(proc, start, start+length)
		}
		crashes := sp.Crashes
		if crashes > sp.Procs-1 {
			crashes = sp.Procs - 1
		}
		// Distinct victims: rejection-sample over the small index space.
		crashed := make(map[int]bool, crashes)
		for len(crashed) < crashes {
			proc := rng.Intn(sp.Procs)
			if crashed[proc] {
				continue
			}
			crashed[proc] = true
			p.WithCrash(proc, rng.Time(horizon))
		}
		restarts := sp.Restarts
		if restarts > crashes {
			// Validate bounds Restarts by the requested Crashes; the
			// survivor clamp above can still shrink the drawn count.
			restarts = crashes
		}
		for i := 0; i < restarts; i++ {
			c := p.crashes[i]
			delay := spanIn(sp.RestartDelayMin, sp.RestartDelayMax, defMin, defMax)
			p.WithRestart(c.Proc, c.At+delay)
		}
		factorMax := sp.FactorMax
		if factorMax < 2 {
			factorMax = 8
		}
		for i := 0; i < sp.Degrades; i++ {
			mod := rng.Intn(sp.Procs)
			start := rng.Time(horizon)
			length := spanIn(sp.DegradeMin, sp.DegradeMax, defMin, defMax)
			factor := 2 + rng.Intn(factorMax-1)
			p.WithDegrade(mod, start, start+length, factor)
		}
	}
	return p
}
