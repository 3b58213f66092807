package fa_test

// Tests whose oracle or subject is the language engine in internal/fa/lang.
// lang imports fa, so these live in the external test package.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/fa/lang"
	"repro/internal/trace"
)

var (
	// buggyStdio is the Figure 1 specification: fclose closes pipes too.
	buggyStdio = fa.MustCompile("stdio-buggy", "(X = fopen() | X = popen()) (fread(X) | fwrite(X))* fclose(X)")
	// fixedStdio is the corrected specification of Figure 6.
	fixedStdio = fa.MustCompile("stdio-fixed",
		"X = fopen() (fread(X) | fwrite(X))* fclose(X) | X = popen() (fread(X) | fwrite(X))* pclose(X)")
)

// randomNFA generates a small random NFA over {a(), b(), c()}, possibly
// with two start states and several accepting ones.
func randomNFA(rng *rand.Rand) *fa.FA {
	alpha, _ := event.ParseAll("a()", "b()", "c()")
	n := 2 + rng.Intn(5)
	b := fa.NewBuilder("rand")
	states := b.States(n)
	b.Start(states[0])
	if rng.Intn(3) == 0 {
		b.Start(states[1])
	}
	for _, s := range states {
		if rng.Intn(3) == 0 {
			b.Accept(s)
		}
	}
	b.Accept(states[n-1])
	for i := 1 + rng.Intn(2*n); i > 0; i-- {
		b.Edge(states[rng.Intn(n)], alpha[rng.Intn(len(alpha))], states[rng.Intn(n)])
	}
	return b.MustBuild()
}

func randomWord(rng *rand.Rand, maxLen int) trace.Trace {
	events := make([]string, rng.Intn(maxLen+1))
	for i := range events {
		events[i] = []string{"a()", "b()", "c()"}[rng.Intn(3)]
	}
	return trace.ParseEvents("", events...)
}

func equivalent(t *testing.T, f, g *fa.FA) bool {
	t.Helper()
	eq, w, err := lang.Equivalent(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if !eq && f.Accepts(w) == g.Accepts(w) {
		t.Fatalf("witness %q does not separate %q and %q", w.Key(), f.Name(), g.Name())
	}
	return eq
}

func TestTrim(t *testing.T) {
	b := fa.NewBuilder("junk")
	s := b.States(5)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "a()", s[1])
	b.EdgeStr(s[1], "b()", s[2])
	b.EdgeStr(s[0], "a()", s[3]) // dead
	b.EdgeStr(s[4], "z()", s[2]) // unreachable
	f := b.MustBuild()
	trimmed := f.Trim()
	if trimmed.NumStates() != 3 || trimmed.NumTransitions() != 2 {
		t.Errorf("Trim: %d states %d transitions, want 3/2", trimmed.NumStates(), trimmed.NumTransitions())
	}
	if !equivalent(t, f, trimmed) {
		t.Error("Trim changed the language")
	}
}

func TestMinimize(t *testing.T) {
	// Two redundant paths collapse: language (a b | a b) over a chain pair.
	b := fa.NewBuilder("redundant")
	s := b.States(5)
	b.Start(s[0])
	b.Accept(s[3], s[4])
	b.EdgeStr(s[0], "a()", s[1])
	b.EdgeStr(s[0], "a()", s[2])
	b.EdgeStr(s[1], "b()", s[3])
	b.EdgeStr(s[2], "b()", s[4])
	f := b.MustBuild()
	m, err := lang.Minimize(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumStates() != 3 {
		t.Errorf("minimal states = %d, want 3", m.NumStates())
	}
	if !equivalent(t, f, m) {
		t.Error("Minimize changed the language")
	}
}

func TestEquivalent(t *testing.T) {
	if equivalent(t, buggyStdio, fixedStdio) {
		t.Error("buggy and fixed stdio specs reported equivalent")
	}
	if !equivalent(t, fixedStdio, fixedStdio) {
		t.Error("self-equivalence failed")
	}
}

func TestCompileEquivalentToTemplates(t *testing.T) {
	// The paper's seed-order template written as a regex equals the
	// SeedOrder constructor's language.
	alphabet, _ := event.ParseAll("a()", "b()", "s()")
	tmpl := fa.SeedOrder(alphabet, event.MustParse("s()"))
	rx := fa.MustCompile("seed-rx", "(a()|b())* s() (a()|b()|s())*")
	if !equivalent(t, tmpl, rx) {
		t.Error("seed-order regex differs from SeedOrder template")
	}
	// Unordered template as a regex.
	un := fa.Unordered(alphabet)
	rxu := fa.MustCompile("unordered-rx", "(a()|b()|s())*")
	if !equivalent(t, un, rxu) {
		t.Error("unordered regex differs from Unordered template")
	}
}

func TestPropDeterminizeMinimizePreserveLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 150; iter++ {
		f := randomNFA(rng)
		d, err := lang.Determinize(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := lang.Minimize(f)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20; k++ {
			tc := randomWord(rng, 6)
			want := f.Accepts(tc)
			if d.Accepts(tc) != want {
				t.Fatalf("iter %d: determinize changed acceptance of %q on\n%s", iter, tc.Key(), f)
			}
			if m.Accepts(tc) != want {
				t.Fatalf("iter %d: minimize changed acceptance of %q on\n%s", iter, tc.Key(), f)
			}
		}
	}
}

func TestPropBooleanOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alpha, _ := event.ParseAll("a()", "b()", "c()")
	for iter := 0; iter < 100; iter++ {
		f, g := randomNFA(rng), randomNFA(rng)
		df, err := lang.Compile(f, alpha)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := lang.Compile(g, alpha)
		if err != nil {
			t.Fatal(err)
		}
		comp := df.Complement()
		inter, err := lang.Product(df, dg, func(x, y bool) bool { return x && y })
		if err != nil {
			t.Fatal(err)
		}
		uni := fa.Union(f, g)
		for k := 0; k < 20; k++ {
			tc := randomWord(rng, 6)
			af, ag := f.Accepts(tc), g.Accepts(tc)
			if comp.Accepts(tc) == af {
				t.Fatalf("iter %d: complement agrees on %q", iter, tc.Key())
			}
			if inter.Accepts(tc) != (af && ag) {
				t.Fatalf("iter %d: intersect wrong on %q", iter, tc.Key())
			}
			if uni.Accepts(tc) != (af || ag) {
				t.Fatalf("iter %d: union wrong on %q", iter, tc.Key())
			}
		}
	}
}

func TestPropMinimalIsMinimal(t *testing.T) {
	// Minimizing twice changes nothing, and the result of Minimize is never
	// larger than the result of Determinize.
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 80; iter++ {
		f := randomNFA(rng)
		m1, err := lang.Minimize(f)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := lang.Minimize(m1)
		if err != nil {
			t.Fatal(err)
		}
		if m2.NumStates() != m1.NumStates() {
			t.Fatalf("iter %d: re-minimization changed size %d -> %d", iter, m1.NumStates(), m2.NumStates())
		}
		d, err := lang.Determinize(f)
		if err != nil {
			t.Fatal(err)
		}
		if m1.NumStates() > d.NumStates() {
			t.Fatalf("iter %d: minimal (%d) bigger than determinized (%d)", iter, m1.NumStates(), d.NumStates())
		}
	}
}

func TestPropEquivalenceIsLanguageEquality(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		f, g := randomNFA(rng), randomNFA(rng)
		eq := equivalent(t, f, g)
		// Spot-check with bounded enumeration both ways.
		disagree := false
		for _, tc := range f.Enumerate(5, 100) {
			disagree = disagree || !g.Accepts(tc)
		}
		for _, tc := range g.Enumerate(5, 100) {
			disagree = disagree || !f.Accepts(tc)
		}
		if eq && disagree {
			t.Fatalf("iter %d: Equivalent=true but languages differ", iter)
		}
		// The converse direction (disagree=false but eq=false) can be a
		// difference beyond length 5, so it is not checked.
	}
}

func TestQuickDeterminizeSound(t *testing.T) {
	err := quick.Check(func(faSeed, trSeed int64) bool {
		f := randomNFA(rand.New(rand.NewSource(faSeed)))
		d, err := lang.Determinize(f)
		if err != nil {
			return false
		}
		tc := randomWord(rand.New(rand.NewSource(trSeed)), 6)
		return d.Accepts(tc) == f.Accepts(tc)
	}, &quick.Config{MaxCount: 250})
	if err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionIntersectDuality(t *testing.T) {
	alpha, _ := event.ParseAll("a()", "b()", "c()")
	err := quick.Check(func(aSeed, bSeed, trSeed int64) bool {
		a := randomNFA(rand.New(rand.NewSource(aSeed)))
		b := randomNFA(rand.New(rand.NewSource(bSeed)))
		da, errA := lang.Compile(a, alpha)
		db, errB := lang.Compile(b, alpha)
		if errA != nil || errB != nil {
			return false
		}
		inter, err := lang.Product(da, db, func(x, y bool) bool { return x && y })
		if err != nil {
			return false
		}
		tc := randomWord(rand.New(rand.NewSource(trSeed)), 5)
		aa, ab := a.Accepts(tc), b.Accepts(tc)
		return fa.Union(a, b).Accepts(tc) == (aa || ab) && inter.Accepts(tc) == (aa && ab)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}
