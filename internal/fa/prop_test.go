package fa

import (
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/trace"
)

// randomFA generates a small random NFA over a fixed alphabet.
func randomFA(rng *rand.Rand) *FA {
	alpha := []event.Event{
		event.MustParse("a()"),
		event.MustParse("b()"),
		event.MustParse("c()"),
	}
	n := 2 + rng.Intn(5)
	b := NewBuilder("rand")
	states := b.States(n)
	b.Start(states[0])
	if rng.Intn(3) == 0 && n > 1 {
		b.Start(states[1])
	}
	for _, s := range states {
		if rng.Intn(3) == 0 {
			b.Accept(s)
		}
	}
	// Guarantee at least one accepting state so languages are non-trivial
	// more often.
	b.Accept(states[n-1])
	edges := 1 + rng.Intn(2*n)
	for i := 0; i < edges; i++ {
		b.Edge(states[rng.Intn(n)], alpha[rng.Intn(len(alpha))], states[rng.Intn(n)])
	}
	return b.MustBuild()
}

func randomTrace(rng *rand.Rand, maxLen int) trace.Trace {
	alpha := []string{"a()", "b()", "c()"}
	n := rng.Intn(maxLen + 1)
	events := make([]string, n)
	for i := range events {
		events[i] = alpha[rng.Intn(len(alpha))]
	}
	return trace.ParseEvents("", events...)
}

// bruteExecuted enumerates all accepting runs via DFS and unions their
// transitions — an oracle for Executed on short traces.
func bruteExecuted(f *FA, t trace.Trace) (*bitset.Set, bool) {
	out := bitset.New(f.NumTransitions())
	accepted := false
	var dfs func(state State, i int, path []int)
	dfs = func(state State, i int, path []int) {
		if i == len(t.Events) {
			if f.IsAccept(state) {
				accepted = true
				for _, ti := range path {
					out.Add(ti)
				}
			}
			return
		}
		key := t.Events[i].String()
		for _, ti := range f.byFrom[state] {
			tr := f.trans[ti]
			if IsWildcard(tr.Label) || tr.Label.String() == key {
				dfs(tr.To, i+1, append(path, ti))
			}
		}
	}
	for _, s := range f.StartStates() {
		dfs(s, 0, nil)
	}
	return out, accepted
}

func TestPropExecutedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		f := randomFA(rng)
		var tc trace.Trace
		// Half the time, sample from the language to exercise acceptance.
		if s, ok := f.Sample(rng, 5); ok && rng.Intn(2) == 0 {
			tc = s
		} else {
			tc = randomTrace(rng, 5)
		}
		got, gotOK := f.Executed(tc)
		want, wantOK := bruteExecuted(f, tc)
		if gotOK != wantOK || !got.Equal(want) {
			t.Fatalf("iter %d: Executed(%q) = %s/%v, brute force %s/%v on\n%s",
				iter, tc.Key(), got, gotOK, want, wantOK, f)
		}
		if gotOK != f.Accepts(tc) {
			t.Fatalf("iter %d: Executed ok disagrees with Accepts", iter)
		}
	}
}

func TestPropEnumerateSound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 60; iter++ {
		f := randomFA(rng)
		for _, tc := range f.Enumerate(4, 60) {
			if !f.Accepts(tc) {
				t.Fatalf("iter %d: enumerated trace %q rejected", iter, tc.Key())
			}
		}
	}
}

func TestPropEnumerateComplete(t *testing.T) {
	// Every accepted trace up to the bound appears in an unlimited
	// enumeration: cross-check by generating all traces up to length 3.
	rng := rand.New(rand.NewSource(31))
	alpha := []string{"a()", "b()", "c()"}
	var all []trace.Trace
	var gen func(prefix []string)
	gen = func(prefix []string) {
		all = append(all, trace.ParseEvents("", prefix...))
		if len(prefix) == 3 {
			return
		}
		for _, a := range alpha {
			gen(append(prefix, a))
		}
	}
	gen(nil)
	for iter := 0; iter < 40; iter++ {
		f := randomFA(rng)
		enum := map[string]bool{}
		for _, tc := range f.Enumerate(3, 1<<20) {
			enum[tc.Key()] = true
		}
		for _, tc := range all {
			if f.Accepts(tc) && !enum[tc.Key()] {
				t.Fatalf("iter %d: accepted trace %q missing from enumeration", iter, tc.Key())
			}
		}
	}
}
