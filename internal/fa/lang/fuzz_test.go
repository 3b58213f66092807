package lang_test

import (
	"testing"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/fa/lang"
	"repro/internal/trace"
)

// decodeFA mirrors the FuzzSimDifferential encoding in internal/fa: byte 0
// picks the state count, byte 1 the accepting state, and each further byte
// is an edge — from the high nibble, to the low nibble, label cycling
// through the alphabet with every fourth edge a wildcard. Without
// wildcards, the fourth edge takes its label from the edge byte instead.
func decodeFA(faBytes []byte, wildcards bool) *fa.FA {
	alpha := []event.Event{
		event.MustParse("a()"),
		event.MustParse("b()"),
		event.MustParse("X = c(Y)"),
	}
	b := fa.NewBuilder("fuzz")
	n := 1
	if len(faBytes) > 0 {
		n = 1 + int(faBytes[0]%6)
	}
	states := b.States(n)
	b.Start(states[0])
	if len(faBytes) > 1 {
		b.Accept(states[int(faBytes[1])%n])
	} else {
		b.Accept(states[n-1])
	}
	var edgeBytes []byte
	if len(faBytes) > 2 {
		edgeBytes = faBytes[2:]
	}
	for i, x := range edgeBytes {
		from := states[int(x>>4)%n]
		to := states[int(x&0xf)%n]
		switch {
		case i%4 < 3:
			b.Edge(from, alpha[i%4], to)
		case wildcards:
			b.WildcardEdge(from, to)
		default:
			b.Edge(from, alpha[int(x)%len(alpha)], to)
		}
	}
	return b.MustBuild()
}

// shortTraces enumerates every trace over the automaton's own alphabet up
// to length 3 — the bounded oracle both fuzz targets compare against.
func shortTraces(f *fa.FA) []trace.Trace {
	return allTraces(f.Alphabet(), 3)
}

// FuzzDeterminize checks the subset construction against the compiled NFA
// simulator: the determinized automaton must be deterministic and agree
// with fa.Sim on every short trace over the automaton's alphabet.
func FuzzDeterminize(f *testing.F) {
	f.Add([]byte{3, 1, 0x01, 0x12, 0x21, 0x0a})
	f.Add([]byte{2, 0, 0x00, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, faBytes []byte) {
		if len(faBytes) > 64 {
			return
		}
		nfa := decodeFA(faBytes, true)
		det, err := lang.Determinize(nfa)
		if err != nil {
			t.Fatalf("Determinize: %v", err)
		}
		if !det.IsDeterministic() {
			t.Fatalf("Determinize output is nondeterministic:\n%s", det)
		}
		for _, tr := range shortTraces(nfa) {
			if got, want := det.Accepts(tr), nfa.Accepts(tr); got != want {
				t.Fatalf("determinized disagrees on %q: got %v, Sim says %v on\n%s",
					tr.Key(), got, want, nfa)
			}
		}
	})
}

// FuzzComplementInclusion checks complementation against the NFA
// simulator on short traces, and the inclusion engine's reflexivity:
// Includes(A, A) holds for every automaton, and any witness from
// Includes(A, B) must separate the operands.
func FuzzComplementInclusion(f *testing.F) {
	f.Add([]byte{3, 1, 0x01, 0x12}, []byte{2, 0, 0x00})
	f.Add([]byte{}, []byte{4, 2, 0x13, 0x31, 0x22})
	f.Fuzz(func(t *testing.T, aBytes, bBytes []byte) {
		if len(aBytes) > 64 || len(bBytes) > 64 {
			return
		}
		a := decodeFA(aBytes, true)
		b := decodeFA(bBytes, true)
		d, err := lang.Compile(a, a.Alphabet())
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		comp := d.Complement()
		for _, tr := range shortTraces(a) {
			if comp.Accepts(tr) == a.Accepts(tr) {
				t.Fatalf("complement agrees with original on %q:\n%s", tr.Key(), a)
			}
		}
		if inc, w, err := lang.Includes(a, a); err != nil || !inc {
			t.Fatalf("Includes(A, A) = %v, %q, %v", inc, w.Key(), err)
		}
		inc, w, err := lang.Includes(a, b)
		if err != nil {
			t.Fatalf("Includes: %v", err)
		}
		if !inc && (!a.Accepts(w) || b.Accepts(w)) {
			t.Fatalf("witness %q does not separate (a: %v, b: %v)",
				w.Key(), a.Accepts(w), b.Accepts(w))
		}
	})
}

// FuzzMinimizeMatchesMoore checks Hopcroft minimization against the Moore
// oracle on wildcard-free automata: both must write the same fa.Write
// bytes, since the spec derivation depends on state numbering and
// transition order.
func FuzzMinimizeMatchesMoore(f *testing.F) {
	f.Add([]byte{3, 1, 0x01, 0x12, 0x21, 0x0a})
	f.Add([]byte{5, 4, 0x01, 0x02, 0x13, 0x23, 0x34, 0x44, 0x30})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, faBytes []byte) {
		if len(faBytes) > 64 {
			return
		}
		nfa := decodeFA(faBytes, false)
		min, err := lang.Minimize(nfa)
		if err != nil {
			t.Fatalf("Minimize: %v", err)
		}
		if got, want := writeFA(t, min), writeFA(t, mooreMinimize(nfa)); got != want {
			t.Fatalf("Hopcroft gives\n%sMoore gives\n%son\n%s", got, want, nfa)
		}
	})
}
