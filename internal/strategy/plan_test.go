package strategy

import (
	"testing"

	"repro/internal/cable"
	"repro/internal/fa"
	"repro/internal/trace"
)

// sessionFixture builds a session and its reference labeling over the
// stdio violations.
func sessionFixture(t *testing.T) (*cable.Session, []cable.Label) {
	t.Helper()
	set := trace.NewSet(
		trace.ParseEvents("v0", "X = popen()", "pclose(X)"),
		trace.ParseEvents("v1", "X = popen()", "fread(X)", "pclose(X)"),
		trace.ParseEvents("v2", "X = popen()", "fwrite(X)", "pclose(X)"),
		trace.ParseEvents("v3", "X = popen()", "fread(X)"),
		trace.ParseEvents("v4", "X = fopen()", "fread(X)"),
		trace.ParseEvents("v5", "X = fopen()", "pclose(X)"),
	)
	s, err := cable.NewSession(set, fa.FromTraces(set.Alphabet()))
	if err != nil {
		t.Fatal(err)
	}
	return s, []cable.Label{cable.Good, cable.Good, cable.Good, cable.Bad, cable.Bad, cable.Bad}
}

// planCost prices a plan under the Section 4.2 model: one inspection per
// op plus one labeling per op that labels.
func planCost(p Plan) Cost {
	c := Cost{Inspections: len(p.Ops)}
	for _, op := range p.Ops {
		if op.Label != cable.Unlabeled {
			c.Labelings++
		}
	}
	return c
}

func TestPlanCostMatchesStrategyCost(t *testing.T) {
	s, ref := sessionFixture(t)
	l := s.Lattice()
	eplan, ecost, ok := ExpertPlan(l, ref)
	if !ok {
		t.Fatal("ExpertPlan failed")
	}
	edirect, _ := Expert(l, ref)
	if planCost(eplan) != ecost || ecost != edirect {
		t.Errorf("Expert plan cost %v, returned %v, direct %v", planCost(eplan), ecost, edirect)
	}
}

func TestExpertPlanApplyReproducesLabeling(t *testing.T) {
	s, ref := sessionFixture(t)
	plan, _, ok := ExpertPlan(s.Lattice(), ref)
	if !ok {
		t.Fatal("plan failed")
	}
	if err := plan.Apply(s); err != nil {
		t.Fatal(err)
	}
	if !s.Done() {
		t.Fatal("session not fully labeled after replay")
	}
	for i, l := range s.Labels() {
		if l != ref[i] {
			t.Errorf("trace %d labeled %q, want %q", i, l, ref[i])
		}
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Ops: []Op{{Concept: 3, Label: cable.Good}, {Concept: 5}}}
	if got := p.String(); got != "c3!good c5" {
		t.Errorf("String = %q", got)
	}
}

func TestPlanApplyMalformed(t *testing.T) {
	s, _ := sessionFixture(t)
	// Label everything, then try a plan that labels again: no unlabeled
	// traces remain, so Apply must error.
	s.LabelTraces(s.Lattice().Top(), cable.SelectAll(), cable.Good)
	p := Plan{Ops: []Op{{Concept: s.Lattice().Top(), Label: cable.Bad}}}
	if err := p.Apply(s); err == nil {
		t.Error("malformed plan applied cleanly")
	}
}

func TestOptimalPlanAchievesLabeling(t *testing.T) {
	s, ref := sessionFixture(t)
	plan, cost, ok := OptimalPlan(s.Lattice(), ref, 0)
	if !ok {
		t.Fatal("OptimalPlan failed")
	}
	if planCost(plan) != cost {
		t.Fatalf("plan cost %v != returned %v", planCost(plan), cost)
	}
	// The witness really is optimal: its cost matches Optimal's.
	direct, ok := Optimal(s.Lattice(), ref, 0)
	if !ok || direct != cost {
		t.Fatalf("Optimal = %v, plan = %v", direct, cost)
	}
	// Replaying it through the Cable commands yields the exact labeling.
	if err := plan.Apply(s); err != nil {
		t.Fatal(err)
	}
	for i, l := range s.Labels() {
		if l != ref[i] {
			t.Errorf("trace %d labeled %q, want %q", i, l, ref[i])
		}
	}
	// And no shorter plan exists among the other strategies' plans.
	ePlan, _, _ := ExpertPlan(s.Lattice(), ref)
	if len(plan.Ops) > len(ePlan.Ops) {
		t.Errorf("optimal plan (%d ops) longer than expert (%d)", len(plan.Ops), len(ePlan.Ops))
	}
}
