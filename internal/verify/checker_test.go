package verify

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/trace"
)

// TestCheckerMatchesPackageFunctions pins Checker.CheckSet against the
// one-shot package function over a set with duplicates, including
// violation order (set order, duplicates adjacent) and multiplicities.
func TestCheckerMatchesPackageFunctions(t *testing.T) {
	spec := buggyStdio()
	set := trace.NewSet(
		tr("a", "X = fopen()", "fclose(X)"),
		tr("b", "X = popen()", "pclose(X)"),
		tr("c", "X = popen()", "pclose(X)"),
		tr("d", "X = fopen()", "fread(X)"),
	)
	chk := NewChecker(spec)

	vset, vs := chk.CheckSet(set)
	wantVset, wantVs := CheckSet(spec, set)
	if vset.Total() != wantVset.Total() || vset.NumClasses() != wantVset.NumClasses() {
		t.Fatalf("CheckSet set: got %d/%d, want %d/%d",
			vset.Total(), vset.NumClasses(), wantVset.Total(), wantVset.NumClasses())
	}
	if len(vs) != len(wantVs) {
		t.Fatalf("CheckSet violations: got %d, want %d", len(vs), len(wantVs))
	}
	for i := range vs {
		if vs[i].Trace.ID != wantVs[i].Trace.ID || vs[i].At != wantVs[i].At {
			t.Errorf("violation %d: got %+v, want %+v", i, vs[i], wantVs[i])
		}
	}
	// Duplicate IDs keep their own identity on the fanned-out violations.
	if vs[0].Trace.ID != "b" || vs[1].Trace.ID != "c" || vs[2].Trace.ID != "d" {
		t.Fatalf("violation IDs: %s %s %s", vs[0].Trace.ID, vs[1].Trace.ID, vs[2].Trace.ID)
	}
}

// TestCheckerCompilesOnce pins the plan-reuse hoist: however many times
// the checker runs, the specification compiles exactly once.
func TestCheckerCompilesOnce(t *testing.T) {
	m := obs.Enable()
	defer obs.Disable()

	spec := buggyStdio()
	set := trace.NewSet(
		tr("a", "X = fopen()", "fclose(X)"),
		tr("b", "X = popen()", "pclose(X)"),
	)
	chk := NewChecker(spec)
	for i := 0; i < 50; i++ {
		chk.CheckSet(set)
	}
	if got := m.Counter("fa.compile.plans").Value(); got != 1 {
		t.Fatalf("fa.compile.plans = %d after 50 checker calls, want 1", got)
	}
}
