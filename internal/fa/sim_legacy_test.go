package fa

import (
	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/trace"
)

// The original per-call simulation loops, kept as the reference
// implementations that the differential tests (sim_test.go) and the
// benchmarks (sim_bench_test.go) pin the compiled simulator against.

// legacyAccepts is the original per-call simulation loop: a fresh frontier
// bitset per event and a string render + compare per (state, event) pair.
func (f *FA) legacyAccepts(t trace.Trace) bool {
	cur := f.start.Clone()
	for _, e := range t.Events {
		next := bitset.New(f.numStates)
		cur.Range(func(s int) bool {
			for _, ti := range f.matching(State(s), e) {
				next.Add(int(f.trans[ti].To))
			}
			return true
		})
		cur = next
		if cur.Empty() {
			return false
		}
	}
	return cur.Intersects(f.accept)
}

// legacyRejectsAt is the original RejectsAt loop (see legacyAccepts).
func (f *FA) legacyRejectsAt(t trace.Trace) int {
	cur := f.start.Clone()
	for i, e := range t.Events {
		next := bitset.New(f.numStates)
		cur.Range(func(s int) bool {
			for _, ti := range f.matching(State(s), e) {
				next.Add(int(f.trans[ti].To))
			}
			return true
		})
		if next.Empty() {
			return i
		}
		cur = next
	}
	if cur.Intersects(f.accept) {
		return -1
	}
	return len(t.Events)
}

// legacyExecuted is the original forward/backward product (see Executed for
// the algorithm), allocating per-position bitsets and comparing labels by
// rendered string.
func (f *FA) legacyExecuted(t trace.Trace) (executed *bitset.Set, ok bool) {
	n := len(t.Events)
	fwd := make([]*bitset.Set, n+1)
	fwd[0] = f.start.Clone()
	for i, e := range t.Events {
		next := bitset.New(f.numStates)
		fwd[i].Range(func(s int) bool {
			for _, ti := range f.matching(State(s), e) {
				next.Add(int(f.trans[ti].To))
			}
			return true
		})
		fwd[i+1] = next
	}
	executed = bitset.New(len(f.trans))
	if !fwd[n].Intersects(f.accept) {
		return executed, false
	}
	bwd := make([]*bitset.Set, n+1)
	bwd[n] = bitset.Intersect(fwd[n], f.accept)
	for i := n - 1; i >= 0; i-- {
		e := t.Events[i]
		prev := bitset.New(f.numStates)
		key := e.String()
		// A state p belongs in bwd[i] if it has a matching transition into
		// bwd[i+1]; we scan transitions entering states of bwd[i+1].
		bwd[i+1].Range(func(q int) bool {
			for _, ti := range f.byTo[q] {
				tr := f.trans[ti]
				if IsWildcard(tr.Label) || tr.Label.String() == key {
					prev.Add(int(tr.From))
				}
			}
			return true
		})
		prev.IntersectWith(fwd[i])
		bwd[i] = prev
	}
	for i, e := range t.Events {
		key := e.String()
		fwd[i].Range(func(p int) bool {
			for _, ti := range f.byFrom[p] {
				tr := f.trans[ti]
				if (IsWildcard(tr.Label) || tr.Label.String() == key) && bwd[i+1].Has(int(tr.To)) {
					executed.Add(ti)
				}
			}
			return true
		})
	}
	return executed, true
}

// matching returns the transition indices leaving s whose label matches e.
func (f *FA) matching(s State, e event.Event) []int {
	var out []int
	key := e.String()
	for _, ti := range f.byFrom[s] {
		t := f.trans[ti]
		if IsWildcard(t.Label) || t.Label.String() == key {
			out = append(out, ti)
		}
	}
	return out
}
