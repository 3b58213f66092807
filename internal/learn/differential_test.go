package learn

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/trace"
)

// randomTraces draws a multiset of traces over a small alphabet. With
// colliding set, the alphabet also holds labels whose renderings contain
// the k-string separator, so distinct paths can render to equal k-strings
// and the duplicate aggregation in kstrings is exercised.
func randomTraces(rng *rand.Rand, colliding bool) []trace.Trace {
	alphabet := []event.Event{
		event.Call("a"),
		event.Call("b", "X"),
		event.Event{Op: "c", Def: "X"},
		event.Call("d", "X", "Y"),
	}
	if colliding {
		alphabet = append(alphabet, event.Call("a()\x00b"), event.Call("a()\x00$"))
	}
	alphabet = alphabet[:2+rng.Intn(len(alphabet)-1)]
	n := 1 + rng.Intn(30)
	out := make([]trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		var evs []event.Event
		for j, ln := 0, rng.Intn(9); j < ln; j++ {
			evs = append(evs, alphabet[rng.Intn(len(alphabet))])
		}
		out = append(out, trace.New("", evs...))
	}
	return out
}

// TestFindMergeableMatchesReference runs the memoized sk-strings scan and
// the reference scan of oracle_test.go in lockstep on two copies of one
// PTA: every scan must pick the same pair, every live class's memoized
// distribution must equal a fresh reference walk, and the frozen automata
// must be byte-identical. Learners cover AND and OR agreement, K 1–3, a
// range of S, and merge caps.
func TestFindMergeableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ss := []float64{0.3, 0.5, 0.8, 0.95, 1}
	for iter := 0; iter < 400; iter++ {
		traces := randomTraces(rng, iter%4 == 3)
		l := Learner{
			K:         1 + rng.Intn(3),
			S:         ss[rng.Intn(len(ss))],
			Agreement: Agreement(rng.Intn(2)),
			MaxMerges: rng.Intn(4) * 2,
		}
		ref, got := buildPTA(traces), buildPTA(traces)
		m := newMerger(l, got)
		for merges := 0; ; merges++ {
			ra, rb := refFindMergeable(l, ref)
			ga, gb := m.findMergeable()
			if ra != ga || rb != gb {
				t.Fatalf("iter %d %+v merge %d: scan picked (%d, %d), reference (%d, %d)",
					iter, l, merges, ga, gb, ra, rb)
			}
			for _, s := range ref.states() {
				want := refKstrings(ref, s, l.K)
				if e := m.memo[s]; !e.valid || !reflect.DeepEqual(e.strs, want) {
					t.Fatalf("iter %d %+v merge %d: class %d memo %v, reference %v",
						iter, l, merges, s, e.strs, want)
				}
			}
			if ra < 0 || (l.MaxMerges > 0 && merges == l.MaxMerges) {
				break
			}
			ref.merge(ra, rb)
			got.merge(ga, gb)
		}
		wantRes, err := ref.freeze("x")
		if err != nil {
			t.Fatal(err)
		}
		gotRes, err := got.freeze("x")
		if err != nil {
			t.Fatal(err)
		}
		var wb, gb bytes.Buffer
		if err := fa.Write(&wb, wantRes.FA); err != nil {
			t.Fatal(err)
		}
		if err := fa.Write(&gb, gotRes.FA); err != nil {
			t.Fatal(err)
		}
		if wb.String() != gb.String() ||
			!reflect.DeepEqual(wantRes.TransCount, gotRes.TransCount) ||
			!reflect.DeepEqual(wantRes.AcceptCount, gotRes.AcceptCount) {
			t.Fatalf("iter %d %+v: learned automata differ:\n%s\nvs reference\n%s", iter, l, gb.String(), wb.String())
		}
		// Learn itself must agree with the lockstep run.
		res, err := l.Learn("x", traces)
		if err != nil {
			t.Fatal(err)
		}
		var lb bytes.Buffer
		if err := fa.Write(&lb, res.FA); err != nil {
			t.Fatal(err)
		}
		if lb.String() != wb.String() || !reflect.DeepEqual(res.TransCount, wantRes.TransCount) {
			t.Fatalf("iter %d %+v: Learn differs from the reference merge loop", iter, l)
		}
	}
}
