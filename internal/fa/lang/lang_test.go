package lang_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/fa/lang"
	"repro/internal/trace"
)

var testAlpha = []event.Event{
	event.MustParse("a()"),
	event.MustParse("b()"),
	event.MustParse("X = c(Y)"),
}

// randomNFA builds a small random automaton over testAlpha, optionally
// with wildcard edges, mirroring the fuzz decoding in internal/fa.
func randomNFA(rng *rand.Rand, wildcards bool) *fa.FA {
	b := fa.NewBuilder("rand")
	n := 1 + rng.Intn(4)
	states := b.States(n)
	b.Start(states[rng.Intn(n)])
	for s := 0; s < n; s++ {
		if rng.Intn(3) == 0 {
			b.Accept(states[s])
		}
	}
	edges := rng.Intn(8)
	for i := 0; i < edges; i++ {
		from := states[rng.Intn(n)]
		to := states[rng.Intn(n)]
		if wildcards && rng.Intn(6) == 0 {
			b.WildcardEdge(from, to)
		} else {
			b.Edge(from, testAlpha[rng.Intn(len(testAlpha))], to)
		}
	}
	if rng.Intn(4) == 0 {
		b.Accept(states[rng.Intn(n)])
	}
	return b.MustBuild()
}

// allTraces enumerates every trace over the alphabet up to maxLen — the
// brute-force bounded oracle the semantic operations are pinned against.
func allTraces(alpha []event.Event, maxLen int) []trace.Trace {
	out := []trace.Trace{trace.New("t")}
	level := [][]event.Event{nil}
	for l := 0; l < maxLen; l++ {
		var next [][]event.Event
		for _, prefix := range level {
			for _, e := range alpha {
				evs := append(append([]event.Event(nil), prefix...), e)
				next = append(next, evs)
				out = append(out, trace.New("t", evs...))
			}
		}
		level = next
	}
	return out
}

func TestCompileMatchesSim(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	oracle := allTraces(testAlpha, 4)
	for iter := 0; iter < 200; iter++ {
		f := randomNFA(rng, true)
		d, err := lang.Compile(f, f.Alphabet())
		if err != nil {
			t.Fatalf("iter %d: Compile: %v", iter, err)
		}
		for _, tr := range oracle {
			if !inAlphabet(tr, f.Alphabet()) {
				continue
			}
			if got, want := d.Accepts(tr), f.Accepts(tr); got != want {
				t.Fatalf("iter %d: DFA.Accepts(%q) = %v, Sim says %v on\n%s",
					iter, tr.Key(), got, want, f)
			}
		}
	}
}

func inAlphabet(tr trace.Trace, alpha []event.Event) bool {
	in := map[string]bool{}
	for _, e := range alpha {
		in[e.String()] = true
	}
	for _, e := range tr.Events {
		if !in[e.String()] {
			return false
		}
	}
	return true
}

func TestComplementFlipsMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	oracle := allTraces(testAlpha, 4)
	for iter := 0; iter < 100; iter++ {
		f := randomNFA(rng, false)
		d, err := lang.Compile(f, testAlpha)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		comp := d.Complement()
		for _, tr := range oracle {
			if comp.Accepts(tr) == d.Accepts(tr) {
				t.Fatalf("iter %d: complement agrees with original on %q", iter, tr.Key())
			}
		}
	}
}

func TestProductIntersects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	oracle := allTraces(testAlpha, 4)
	for iter := 0; iter < 100; iter++ {
		f := randomNFA(rng, false)
		g := randomNFA(rng, false)
		df, err := lang.Compile(f, testAlpha)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		dg, err := lang.Compile(g, testAlpha)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		prod, err := lang.Product(df, dg, func(a, b bool) bool { return a && b })
		if err != nil {
			t.Fatalf("Product: %v", err)
		}
		for _, tr := range oracle {
			want := df.Accepts(tr) && dg.Accepts(tr)
			if got := prod.Accepts(tr); got != want {
				t.Fatalf("iter %d: product(%q) = %v, want %v", iter, tr.Key(), got, want)
			}
		}
	}
}

func TestWitnessIsShortestAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 200; iter++ {
		f := randomNFA(rng, false)
		d, err := lang.Compile(f, testAlpha)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		w, ok := d.Witness()
		enum := f.Enumerate(8, 1)
		if !ok {
			if len(enum) > 0 {
				t.Fatalf("iter %d: Witness says empty, Enumerate found %q on\n%s",
					iter, enum[0].Key(), f)
			}
			continue
		}
		if !f.Accepts(w) {
			t.Fatalf("iter %d: witness %q rejected by the automaton", iter, w.Key())
		}
		if len(enum) == 0 {
			// Shortest accepted word longer than the enumeration bound —
			// only possible when the witness itself is longer too.
			if w.Len() <= 8 {
				t.Fatalf("iter %d: Enumerate(8) found nothing but witness %q is short", iter, w.Key())
			}
			continue
		}
		if w.Len() != enum[0].Len() {
			t.Fatalf("iter %d: witness %q has length %d, shortest accepted is %q",
				iter, w.Key(), w.Len(), enum[0].Key())
		}
	}
}

func TestIncludesSelfAndOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 150; iter++ {
		a := randomNFA(rng, iter%2 == 0)
		b := randomNFA(rng, iter%3 == 0)
		if inc, w, err := lang.Includes(a, a); err != nil || !inc || w.Len() != 0 {
			t.Fatalf("iter %d: Includes(a, a) = %v, %q, %v", iter, inc, w.Key(), err)
		}
		inc, w, err := lang.Includes(a, b)
		if err != nil {
			t.Fatalf("iter %d: Includes: %v", iter, err)
		}
		if inc {
			// Bounded oracle: every short accepted trace of a must be
			// accepted by b.
			for _, tr := range a.Enumerate(6, 100) {
				if !b.Accepts(tr) {
					t.Fatalf("iter %d: Includes says ⊆ but %q separates\n%s\n%s",
						iter, tr.Key(), a, b)
				}
			}
			continue
		}
		if !a.Accepts(w) || b.Accepts(w) {
			t.Fatalf("iter %d: witness %q not separating (a: %v, b: %v)",
				iter, w.Key(), a.Accepts(w), b.Accepts(w))
		}
		// Shortest: no bounded-enumerated separating trace may be shorter.
		if w.Len() > 0 {
			for _, tr := range a.Enumerate(w.Len()-1, 200) {
				if tr.Len() < w.Len() && !b.Accepts(tr) {
					t.Fatalf("iter %d: witness %q not shortest, %q is shorter",
						iter, w.Key(), tr.Key())
				}
			}
		}
	}
}

func TestEquivalentMatchesOpsEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 150; iter++ {
		a := randomNFA(rng, false)
		b := randomNFA(rng, false)
		want := canonicalEquivalent(a, b)
		got, w, err := lang.Equivalent(a, b)
		if err != nil {
			t.Fatalf("lang.Equivalent: %v", err)
		}
		if got != want {
			t.Fatalf("iter %d: lang.Equivalent = %v, canonical forms say %v on\n%s\n%s",
				iter, got, want, a, b)
		}
		if !got && a.Accepts(w) == b.Accepts(w) {
			t.Fatalf("iter %d: witness %q does not separate", iter, w.Key())
		}
	}
}

func TestEquivalentSeesWildcardOnlyDifference(t *testing.T) {
	b1 := fa.NewBuilder("anything")
	s1 := b1.State()
	b1.Start(s1)
	b1.Accept(s1)
	b1.WildcardEdge(s1, s1)
	anything := b1.MustBuild()

	b2 := fa.NewBuilder("only-a")
	s2 := b2.State()
	b2.Start(s2)
	b2.Accept(s2)
	b2.Edge(s2, event.MustParse("a()"), s2)
	onlyA := b2.MustBuild()

	eq, w, err := lang.Equivalent(anything, onlyA)
	if err != nil {
		t.Fatalf("Equivalent: %v", err)
	}
	if eq {
		t.Fatalf("wildcard loop reported equivalent to a()-loop")
	}
	if !anything.Accepts(w) || onlyA.Accepts(w) {
		t.Fatalf("witness %q does not separate the wildcard difference", w.Key())
	}
	if got := w.Key(); got != "other()" {
		t.Fatalf("expected the fresh other() symbol as witness, got %q", got)
	}
}

func TestDeterminizeDeterministicAndEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		f := randomNFA(rng, false)
		dfa, err := lang.Compile(f, f.Alphabet())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		det := dfa.FA(f.Name()).Trim()
		if !det.IsDeterministic() {
			t.Fatalf("iter %d: Determinize output is nondeterministic:\n%s", iter, det)
		}
		eq, w, err := lang.Equivalent(f, det)
		if err != nil {
			t.Fatalf("Equivalent: %v", err)
		}
		if !eq {
			t.Fatalf("iter %d: determinized language differs, witness %q", iter, w.Key())
		}
	}
}

// TestMinimizeMatchesMooreMinimize pins Hopcroft against the Moore oracle
// byte for byte: the spec derivation relies on the minimal automaton's
// state numbering and transition order, not just its size.
func TestMinimizeMatchesMooreMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 150; iter++ {
		f := randomNFA(rng, false)
		min, err := lang.Minimize(f)
		if err != nil {
			t.Fatalf("lang.Minimize: %v", err)
		}
		if got, want := writeFA(t, min), writeFA(t, mooreMinimize(f)); got != want {
			t.Fatalf("iter %d: Hopcroft gives\n%sMoore gives\n%son\n%s", iter, got, want, f)
		}
		if !min.IsDeterministic() {
			t.Fatalf("iter %d: minimized automaton is nondeterministic", iter)
		}
		eq, w, err := lang.Equivalent(f, min)
		if err != nil {
			t.Fatalf("Equivalent: %v", err)
		}
		if !eq {
			t.Fatalf("iter %d: minimized language differs, witness %q", iter, w.Key())
		}
	}
}

func writeFA(t testing.TB, f *fa.FA) string {
	t.Helper()
	var b strings.Builder
	if err := fa.Write(&b, f); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestMinimizeRejectsWildcards(t *testing.T) {
	f := fa.MustCompile("wild", "a() . b()")
	if _, err := lang.Minimize(f); err == nil {
		t.Fatal("Minimize accepted an automaton with wildcard transitions")
	}
}

func TestEquivalentStatesFindsMergeablePair(t *testing.T) {
	b := fa.NewBuilder("dup")
	s := b.States(4)
	b.Start(s[0])
	b.Accept(s[3])
	b.Edge(s[0], event.MustParse("a()"), s[1])
	b.Edge(s[0], event.MustParse("b()"), s[2])
	b.Edge(s[1], event.MustParse("X = c(Y)"), s[3])
	b.Edge(s[2], event.MustParse("X = c(Y)"), s[3])
	f := b.MustBuild()

	groups, err := lang.EquivalentStates(f)
	if err != nil {
		t.Fatalf("EquivalentStates: %v", err)
	}
	if len(groups) != 1 || len(groups[0]) != 2 || groups[0][0] != 1 || groups[0][1] != 2 {
		t.Fatalf("expected one mergeable group [1 2], got %v", groups)
	}

	// The minimal automaton must not report anything.
	min, err := lang.Minimize(f)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	groups, err = lang.EquivalentStates(min)
	if err != nil {
		t.Fatalf("EquivalentStates(min): %v", err)
	}
	if len(groups) != 0 {
		t.Fatalf("minimal automaton reports mergeable states: %v", groups)
	}
}

func TestEquivalentStatesRejectsNondeterministic(t *testing.T) {
	b := fa.NewBuilder("nd")
	s := b.States(2)
	b.Start(s[0])
	b.Accept(s[1])
	b.Edge(s[0], event.MustParse("a()"), s[0])
	b.Edge(s[0], event.MustParse("a()"), s[1])
	if _, err := lang.EquivalentStates(b.MustBuild()); err == nil {
		t.Fatal("expected an error for a nondeterministic automaton")
	}
}

func TestCompileRejectsNarrowAlphabet(t *testing.T) {
	b := fa.NewBuilder("wide")
	s := b.States(2)
	b.Start(s[0])
	b.Accept(s[1])
	b.Edge(s[0], event.MustParse("a()"), s[1])
	b.Edge(s[0], event.MustParse("b()"), s[1])
	f := b.MustBuild()
	if _, err := lang.Compile(f, []event.Event{event.MustParse("a()")}); err == nil {
		t.Fatal("expected an error for an alphabet that misses a label")
	}
	if _, err := lang.Compile(f, []event.Event{fa.Wildcard()}); err == nil {
		t.Fatal("expected an error for a wildcard in the alphabet")
	}
}
