// Package lang is the semantic analysis engine over specification
// automata: determinization by subset construction, completion,
// complement, synchronized product, emptiness with shortest-witness
// extraction, language inclusion and equivalence with concrete
// counterexample traces, and Hopcroft minimization.
//
// It is the repository's one language engine: internal/fa keeps the
// representation, simulation, Trim and Union, and every determinization,
// minimization, complement, product and equivalence question is answered
// here. An automaton is compiled once into a dense complete DFA —
// contiguous symbol ids, flat delta rows — where product walks, emptiness
// BFS, and partition refinement touch plain int32 tables. All semantics
// are relative to an explicit analysis alphabet; wildcard transitions
// expand over it during compilation, and Alphabet adds a fresh "other"
// symbol when wildcards are present so behaviour outside both concrete
// alphabets stays observable.
//
// Every counterexample this package reports is re-executed through the
// compiled fa.Sim plans before it escapes: Includes and Equivalent return
// an error rather than an unverified witness.
package lang

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/trace"
)

// DFA is a complete deterministic automaton over a dense alphabet: every
// state has exactly one successor per symbol (Delta[s][c]), and every
// event outside the alphabet is rejected.
type DFA struct {
	// Alphabet is the dense symbol order: sorted by Event.String, no
	// duplicates, no wildcards.
	Alphabet []event.Event
	// Start is the initial state.
	Start int
	// Accept marks the accepting states.
	Accept []bool
	// Delta[s][c] is the successor of state s on Alphabet[c].
	Delta [][]int32

	symIdx map[string]int
}

// NumStates returns the state count.
func (d *DFA) NumStates() int { return len(d.Accept) }

// Compile determinizes and completes f over the given analysis alphabet
// by subset construction: the empty subset is the rejecting sink, so the
// result is total by construction. Wildcard transitions match every
// alphabet symbol; this is the repository's only wildcard expansion. The
// alphabet must cover every concrete label of f; compiling against a
// narrower alphabet would silently drop transitions, so it is an error
// instead.
func Compile(f *fa.FA, alphabet []event.Event) (*DFA, error) {
	alpha, idx, err := normalizeAlphabet(alphabet)
	if err != nil {
		return nil, fmt.Errorf("lang: compile %q: %w", f.Name(), err)
	}
	for _, e := range f.Alphabet() {
		if _, ok := idx[e.String()]; !ok {
			return nil, fmt.Errorf("lang: compile %q: alphabet does not cover label %s", f.Name(), e)
		}
	}
	n := f.NumStates()
	k := len(alpha)

	// Per NFA state: successors grouped by symbol, wildcard successors.
	bySym := make([][][]int32, n)
	wild := make([][]int32, n)
	for s := range bySym {
		bySym[s] = make([][]int32, k)
	}
	for _, t := range f.Transitions() {
		if fa.IsWildcard(t.Label) {
			wild[t.From] = append(wild[t.From], int32(t.To))
			continue
		}
		c := idx[t.Label.String()]
		bySym[t.From][c] = append(bySym[t.From][c], int32(t.To))
	}
	acc := bitset.New(n)
	for _, s := range f.AcceptStates() {
		acc.Add(int(s))
	}

	d := &DFA{Alphabet: alpha, symIdx: idx}
	seen := map[string]int{}
	var sets []*bitset.Set
	mk := func(set *bitset.Set) int {
		key := set.Key()
		if id, ok := seen[key]; ok {
			return id
		}
		id := len(sets)
		seen[key] = id
		sets = append(sets, set)
		d.Accept = append(d.Accept, set.Intersects(acc))
		d.Delta = append(d.Delta, make([]int32, k))
		return id
	}
	start := bitset.New(n)
	for _, s := range f.StartStates() {
		start.Add(int(s))
	}
	d.Start = mk(start)
	for head := 0; head < len(sets); head++ {
		cur := sets[head]
		for c := 0; c < k; c++ {
			next := bitset.New(n)
			cur.Range(func(s int) bool {
				for _, to := range bySym[s][c] {
					next.Add(int(to))
				}
				for _, to := range wild[s] {
					next.Add(int(to))
				}
				return true
			})
			d.Delta[head][c] = int32(mk(next))
		}
	}
	return d, nil
}

// normalizeAlphabet sorts and dedupes the events and rejects wildcards.
func normalizeAlphabet(alphabet []event.Event) ([]event.Event, map[string]int, error) {
	byKey := map[string]event.Event{}
	for _, e := range alphabet {
		if fa.IsWildcard(e) {
			return nil, nil, errors.New("alphabet must not contain the wildcard")
		}
		byKey[e.String()] = e
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	alpha := make([]event.Event, len(keys))
	idx := make(map[string]int, len(keys))
	for i, k := range keys {
		alpha[i] = byKey[k]
		idx[k] = i
	}
	return alpha, idx, nil
}

// Accepts reports membership of the trace in the DFA's language. Events
// outside the analysis alphabet are rejected outright.
func (d *DFA) Accepts(t trace.Trace) bool {
	s := d.Start
	for _, e := range t.Events {
		c, ok := d.symIdx[e.String()]
		if !ok {
			return false
		}
		s = int(d.Delta[s][c])
	}
	return d.Accept[s]
}

// Complement flips the accepting set; over a complete DFA that is exact
// language complement relative to the analysis alphabet. The delta table
// is shared with the receiver.
func (d *DFA) Complement() *DFA {
	acc := make([]bool, len(d.Accept))
	for i, a := range d.Accept {
		acc[i] = !a
	}
	return &DFA{Alphabet: d.Alphabet, Start: d.Start, Accept: acc, Delta: d.Delta, symIdx: d.symIdx}
}

// Product builds the synchronized product of two complete DFAs over the
// same alphabet, restricted to reachable pairs; accept combines the
// operands' accepting flags (conjunction gives intersection, x && !y
// gives the inclusion-counterexample language, and so on).
func Product(a, b *DFA, accept func(aAcc, bAcc bool) bool) (*DFA, error) {
	if len(a.Alphabet) != len(b.Alphabet) {
		return nil, errors.New("lang: product requires identical alphabets")
	}
	for i := range a.Alphabet {
		if a.Alphabet[i].String() != b.Alphabet[i].String() {
			return nil, errors.New("lang: product requires identical alphabets")
		}
	}
	k := len(a.Alphabet)
	type pair struct{ x, y int32 }
	id := map[pair]int{}
	var pairs []pair
	d := &DFA{Alphabet: a.Alphabet, symIdx: a.symIdx}
	mk := func(p pair) int {
		if i, ok := id[p]; ok {
			return i
		}
		i := len(pairs)
		id[p] = i
		pairs = append(pairs, p)
		d.Accept = append(d.Accept, accept(a.Accept[p.x], b.Accept[p.y]))
		d.Delta = append(d.Delta, make([]int32, k))
		return i
	}
	d.Start = mk(pair{int32(a.Start), int32(b.Start)})
	for head := 0; head < len(pairs); head++ {
		p := pairs[head]
		for c := 0; c < k; c++ {
			d.Delta[head][c] = int32(mk(pair{a.Delta[p.x][c], b.Delta[p.y][c]}))
		}
	}
	return d, nil
}

// Witness returns the shortest trace the automaton accepts, or ok=false
// when the language is empty. BFS expands symbols in alphabet order, so
// ties between equal-length words break toward the lexicographically
// least one and the result is deterministic.
func (d *DFA) Witness() (trace.Trace, bool) {
	n := len(d.Accept)
	if n == 0 {
		return trace.Trace{}, false
	}
	prev := make([]int32, n)
	psym := make([]int32, n)
	seen := make([]bool, n)
	for i := range prev {
		prev[i] = -1
	}
	seen[d.Start] = true
	if d.Accept[d.Start] {
		return trace.New("witness"), true
	}
	queue := []int32{int32(d.Start)}
	goal := int32(-1)
	for len(queue) > 0 && goal < 0 {
		s := queue[0]
		queue = queue[1:]
		for c, to := range d.Delta[s] {
			if seen[to] {
				continue
			}
			seen[to] = true
			prev[to] = s
			psym[to] = int32(c)
			if d.Accept[to] {
				goal = to
				break
			}
			queue = append(queue, to)
		}
	}
	if goal < 0 {
		return trace.Trace{}, false
	}
	var rev []event.Event
	for s := goal; prev[s] >= 0; s = prev[s] {
		rev = append(rev, d.Alphabet[psym[s]])
	}
	evs := make([]event.Event, len(rev))
	for i := range rev {
		evs[i] = rev[len(rev)-1-i]
	}
	return trace.New("witness", evs...), true
}

// FA converts the complete DFA back to an fa.FA, sink included; Trim the
// result to drop states off every accepting path.
func (d *DFA) FA(name string) *fa.FA {
	b := fa.NewBuilder(name)
	ss := b.States(len(d.Accept))
	b.Start(ss[d.Start])
	for i, a := range d.Accept {
		if a {
			b.Accept(ss[i])
		}
	}
	for s, row := range d.Delta {
		for c, to := range row {
			b.Edge(ss[s], d.Alphabet[c], ss[int(to)])
		}
	}
	return b.MustBuild()
}

// Determinize returns a trimmed deterministic automaton recognizing f's
// language over f's own alphabet; wildcards expand over that alphabet, so
// the result agrees with f on traces drawn from it.
func Determinize(f *fa.FA) (*fa.FA, error) {
	d, err := Compile(f, f.Alphabet())
	if err != nil {
		return nil, err
	}
	return d.FA(f.Name()).Trim(), nil
}

// Alphabet returns the joint analysis alphabet for f and g: the union of
// their concrete labels, extended — when either automaton has wildcard
// transitions — with one fresh "other" symbol standing in for every event
// outside the union. That keeps wildcard-only differences observable
// (a wildcard automaton accepts the fresh symbol, a concrete one rejects
// it) while witnesses remain executable traces.
func Alphabet(f, g *fa.FA) []event.Event {
	byKey := map[string]event.Event{}
	add := func(a *fa.FA) {
		for _, e := range a.Alphabet() {
			byKey[e.String()] = e
		}
	}
	add(f)
	add(g)
	if f.HasWildcard() || g.HasWildcard() {
		name := "other"
		for i := 2; ; i++ {
			if _, taken := byKey[name+"()"]; !taken {
				break
			}
			name = fmt.Sprintf("other%d", i)
		}
		other := event.Call(name)
		byKey[other.String()] = other
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]event.Event, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}

// Includes reports whether L(a) ⊆ L(b) over the joint analysis alphabet.
// When inclusion fails, the returned witness is a shortest concrete trace
// accepted by a and rejected by b — extracted from the emptiness BFS over
// the a ∩ ¬b product and re-executed through both automata's compiled
// fa.Sim plans before it is returned; a witness that fails re-execution
// is an internal error, never a reported result.
func Includes(a, b *fa.FA) (bool, trace.Trace, error) {
	alpha := Alphabet(a, b)
	da, err := Compile(a, alpha)
	if err != nil {
		return false, trace.Trace{}, err
	}
	db, err := Compile(b, alpha)
	if err != nil {
		return false, trace.Trace{}, err
	}
	diff, err := Product(da, db.Complement(), func(x, y bool) bool { return x && y })
	if err != nil {
		return false, trace.Trace{}, err
	}
	w, ok := diff.Witness()
	if !ok {
		return true, trace.Trace{}, nil
	}
	if !a.Accepts(w) || b.Accepts(w) {
		return false, trace.Trace{}, fmt.Errorf(
			"lang: witness %q failed re-execution: accepted by %q: %v, by %q: %v",
			w.Key(), a.Name(), a.Accepts(w), b.Name(), b.Accepts(w))
	}
	return false, w, nil
}

// Equivalent reports whether a and b recognize the same language over the
// joint analysis alphabet. When they differ, the witness is a shortest
// separating trace (verified by re-execution); test which side accepts it
// with fa.Accepts.
func Equivalent(a, b *fa.FA) (bool, trace.Trace, error) {
	inc, w, err := Includes(a, b)
	if err != nil || !inc {
		return inc, w, err
	}
	inc, w, err = Includes(b, a)
	if err != nil || !inc {
		return inc, w, err
	}
	return true, trace.Trace{}, nil
}

// Reachable marks the states reachable from a start state.
func Reachable(f *fa.FA) []bool {
	seen := make([]bool, f.NumStates())
	var queue []int
	for _, s := range f.StartStates() {
		if !seen[int(s)] {
			seen[int(s)] = true
			queue = append(queue, int(s))
		}
	}
	fwd := make([][]int, f.NumStates())
	for _, t := range f.Transitions() {
		fwd[int(t.From)] = append(fwd[int(t.From)], int(t.To))
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, n := range fwd[s] {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return seen
}

// Coreachable marks the states from which some accepting state is
// reachable.
func Coreachable(f *fa.FA) []bool {
	seen := make([]bool, f.NumStates())
	var queue []int
	for _, s := range f.AcceptStates() {
		if !seen[int(s)] {
			seen[int(s)] = true
			queue = append(queue, int(s))
		}
	}
	rev := make([][]int, f.NumStates())
	for _, t := range f.Transitions() {
		rev[int(t.To)] = append(rev[int(t.To)], int(t.From))
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, n := range rev[s] {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return seen
}
