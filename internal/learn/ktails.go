package learn

import (
	"sort"
	"strings"

	"repro/internal/trace"
)

// KTails implements the classic Biermann–Feldman k-tails learner as an
// alternative to sk-strings for Step 1a of the debugging method ("by
// varying parameters of the FA-learning algorithm, the author can choose
// to use a large FA that makes very fine distinctions among traces or a
// smaller FA that makes coarser distinctions"). Two PTA states are merged
// iff their k-tails — the exact sets of suffixes of length ≤ k that lead
// to acceptance — are equal. Unlike sk-strings, the criterion ignores
// frequencies, so k-tails is the better reference when the workload's
// sampling proportions are unreliable; k controls the coarseness.
type KTails struct {
	// K is the tail depth; larger K merges less. K ≤ 0 defaults to 2.
	K int
}

// Learn builds the PTA and merges k-tail-equivalent states until fixpoint.
func (l KTails) Learn(name string, traces []trace.Trace) (*Result, error) {
	k := l.K
	if k <= 0 {
		k = 2
	}
	p := buildPTA(traces)
	for {
		merged := false
		// Group current states by their k-tail signature and merge each
		// group; recompute until no group has two members (signatures
		// change as merges fold the automaton).
		states := p.states()
		groups := map[string][]int{}
		for _, s := range states {
			sig := p.ktailSignature(s, k)
			groups[sig] = append(groups[sig], s)
		}
		keys := make([]string, 0, len(groups))
		for key := range groups {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			group := groups[key]
			if len(group) < 2 {
				continue
			}
			base := p.find(group[0])
			for _, other := range group[1:] {
				if p.find(other) != base {
					p.merge(base, other)
					base = p.find(base)
					merged = true
				}
			}
		}
		if !merged {
			break
		}
	}
	return p.freeze(name)
}

// MustLearn is Learn that panics on error.
func (l KTails) MustLearn(name string, traces []trace.Trace) *Result {
	r, err := l.Learn(name, traces)
	if err != nil {
		panic(err)
	}
	return r
}

// ktailSignature renders the set of accepting suffixes of length ≤ k from
// state s, canonically ordered. The end marker distinguishes "can stop
// here" from "has continuations".
func (p *pta) ktailSignature(s int, k int) string {
	var tails []string
	var walk func(state int, depth int, prefix string)
	walk = func(state int, depth int, prefix string) {
		state = p.find(state)
		n := p.nodes[state]
		if n.end > 0 {
			tails = append(tails, prefix+endMark)
		}
		if depth == k {
			return
		}
		for _, e := range n.edges() {
			walk(e.to, depth+1, prefix+e.key+"\x00")
		}
	}
	walk(s, 0, "")
	sort.Strings(tails)
	return strings.Join(tails, "\x01")
}
