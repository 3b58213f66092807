package verify

import (
	"fmt"

	"repro/internal/fa"
	"repro/internal/fa/lang"
	"repro/internal/trace"
)

// This file implements the static side of Section 2.1: a verification tool
// that "analyzes the program and reports violation traces, which are
// program execution traces that demonstrate an apparent violation of the
// specification". Programs are modeled as automata over the same event
// alphabet as specifications — each accepted word is a possible per-object
// scenario of the program — and the verifier reports the shortest words
// the program can produce that the specification rejects, via the product
// of the program with the specification's complement.

// Static reports up to limit violation traces of length at most maxLen
// that the program model can produce but the specification rejects,
// shortest first. The returned traces carry IDs "static#<n>". An empty
// result means the program conforms to the specification up to maxLen.
func Static(program, spec *fa.FA, maxLen, limit int) ([]Violation, error) {
	bad, err := violating(program, spec)
	if err != nil {
		return nil, err
	}
	sim := spec.Sim()
	var out []Violation
	for i, t := range bad.FA(program.Name()+"&!"+spec.Name()).Trim().Enumerate(maxLen, limit) {
		t.ID = fmt.Sprintf("static#%d", i)
		at := sim.RejectsAt(t)
		if at < 0 {
			return nil, fmt.Errorf("verify: internal error: enumerated trace %q accepted by spec", t.Key())
		}
		out = append(out, Violation{Trace: t, At: at})
	}
	return out, nil
}

// Conforms reports whether every behaviour of the program model is
// accepted by the specification: L(program) ⊆ L(spec). Exact (not bounded):
// it checks emptiness of program ∩ ¬spec.
func Conforms(program, spec *fa.FA) (bool, error) {
	bad, err := violating(program, spec)
	if err != nil {
		return false, err
	}
	_, nonempty := bad.Witness()
	return !nonempty, nil
}

// violating compiles program ∩ ¬spec over the joint alphabet of both
// automata. Program wildcards expand over that alphabet; a wildcard spec
// is an error, because complementing it over a finite alphabet would
// misjudge every event outside it.
func violating(program, spec *fa.FA) (*lang.DFA, error) {
	if spec.HasWildcard() {
		return nil, fmt.Errorf("verify: complementing %q: it has wildcard transitions", spec.Name())
	}
	alphabet := append(program.Alphabet(), spec.Alphabet()...)
	dp, err := lang.Compile(program, alphabet)
	if err != nil {
		return nil, err
	}
	ds, err := lang.Compile(spec, alphabet)
	if err != nil {
		return nil, err
	}
	return lang.Product(dp, ds, func(p, s bool) bool { return p && !s })
}

// StaticSet is Static collected into a trace set ready for a Cable
// session.
func StaticSet(program, spec *fa.FA, maxLen, limit int) (*trace.Set, []Violation, error) {
	violations, err := Static(program, spec, maxLen, limit)
	if err != nil {
		return nil, nil, err
	}
	set := &trace.Set{}
	for _, v := range violations {
		set.Add(v.Trace)
	}
	return set, violations, nil
}
