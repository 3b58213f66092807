package fa

import "repro/internal/bitset"

// Trim returns an automaton restricted to useful states: reachable from a
// start state and able to reach an accepting state. The trimmed automaton
// recognizes the same language with (possibly) fewer states and transitions.
func (f *FA) Trim() *FA {
	reach := bitset.New(f.numStates)
	var stack []int
	f.start.Range(func(s int) bool {
		reach.Add(s)
		stack = append(stack, s)
		return true
	})
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ti := range f.byFrom[s] {
			to := int(f.trans[ti].To)
			if !reach.Has(to) {
				reach.Add(to)
				stack = append(stack, to)
			}
		}
	}
	live := bitset.New(f.numStates)
	f.accept.Range(func(s int) bool {
		live.Add(s)
		stack = append(stack, s)
		return true
	})
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ti := range f.byTo[s] {
			from := int(f.trans[ti].From)
			if !live.Has(from) {
				live.Add(from)
				stack = append(stack, from)
			}
		}
	}
	useful := bitset.Intersect(reach, live)
	remap := make(map[State]State)
	b := NewBuilder(f.name)
	useful.Range(func(s int) bool {
		remap[State(s)] = b.State()
		return true
	})
	useful.Range(func(s int) bool {
		if f.start.Has(s) {
			b.Start(remap[State(s)])
		}
		if f.accept.Has(s) {
			b.Accept(remap[State(s)])
		}
		return true
	})
	for _, t := range f.trans {
		if useful.Has(int(t.From)) && useful.Has(int(t.To)) {
			b.Edge(remap[t.From], t.Label, remap[t.To])
		}
	}
	if len(remap) == 0 {
		// Empty language: one non-accepting start state.
		s := b.State()
		b.Start(s)
	}
	return b.MustBuild()
}

// Union returns an automaton accepting L(f) ∪ L(g).
func Union(f, g *FA) *FA {
	b := NewBuilder(f.name + "|" + g.name)
	fs := b.States(f.numStates)
	gs := b.States(g.numStates)
	for _, s := range f.StartStates() {
		b.Start(fs[int(s)])
	}
	for _, s := range g.StartStates() {
		b.Start(gs[int(s)])
	}
	for _, s := range f.AcceptStates() {
		b.Accept(fs[int(s)])
	}
	for _, s := range g.AcceptStates() {
		b.Accept(gs[int(s)])
	}
	for _, t := range f.trans {
		b.Edge(fs[int(t.From)], t.Label, fs[int(t.To)])
	}
	for _, t := range g.trans {
		b.Edge(gs[int(t.From)], t.Label, gs[int(t.To)])
	}
	if f.numStates+g.numStates == 0 {
		b.Start(b.State())
	}
	return b.MustBuild()
}
