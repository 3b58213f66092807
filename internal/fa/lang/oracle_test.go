package lang_test

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/event"
	"repro/internal/fa"
)

// The oracles in this file are an independent second implementation of
// minimization and equivalence: map-keyed subset construction, Moore
// partition refinement by signature strings, and canonical-form
// comparison. They are deliberately naive; the tests pin the dense
// Hopcroft engine against them.

// subsetDFA is a complete DFA over alpha built by subset construction in
// breadth-first order, symbols in alphabet order; the empty subset is the
// rejecting sink. Wildcard transitions are not supported.
type subsetDFA struct {
	alpha  []event.Event
	accept []bool
	delta  [][]int
}

func buildSubsetDFA(f *fa.FA, alpha []event.Event) subsetDFA {
	succ := map[string][]int{} // "state|label" -> successors
	for _, t := range f.Transitions() {
		if fa.IsWildcard(t.Label) {
			panic("oracle: wildcard transition in " + f.Name())
		}
		k := fmt.Sprintf("%d|%s", t.From, t.Label)
		succ[k] = append(succ[k], int(t.To))
	}
	d := subsetDFA{alpha: alpha}
	ids := map[string]int{}
	var sets [][]int
	mk := func(set []int) int {
		sort.Ints(set)
		uniq := set[:0]
		for i, s := range set {
			if i == 0 || s != set[i-1] {
				uniq = append(uniq, s)
			}
		}
		key := fmt.Sprint(uniq)
		if id, ok := ids[key]; ok {
			return id
		}
		id := len(sets)
		ids[key] = id
		sets = append(sets, uniq)
		acc := false
		for _, s := range uniq {
			acc = acc || f.IsAccept(fa.State(s))
		}
		d.accept = append(d.accept, acc)
		d.delta = append(d.delta, make([]int, len(alpha)))
		return id
	}
	var start []int
	for _, s := range f.StartStates() {
		start = append(start, int(s))
	}
	mk(start)
	for head := 0; head < len(sets); head++ {
		for c, e := range alpha {
			var next []int
			for _, s := range sets[head] {
				next = append(next, succ[fmt.Sprintf("%d|%s", s, e)]...)
			}
			d.delta[head][c] = mk(next)
		}
	}
	return d
}

// moorePartition refines {accepting, rejecting} by successor-block
// signatures until the block count stops growing. Blocks are numbered in
// order of their first state.
func (d subsetDFA) moorePartition() (part []int, blocks int) {
	n := len(d.accept)
	part = make([]int, n)
	for s := range part {
		if d.accept[s] {
			part[s] = 1
		}
	}
	blocks = -1
	for {
		ids := map[string]int{}
		next := make([]int, n)
		for s := 0; s < n; s++ {
			sig := fmt.Sprint(part[s])
			for _, to := range d.delta[s] {
				sig += fmt.Sprintf(",%d", part[to])
			}
			id, ok := ids[sig]
			if !ok {
				id = len(ids)
				ids[sig] = id
			}
			next[s] = id
		}
		part = next
		if len(ids) == blocks {
			return part, blocks
		}
		blocks = len(ids)
	}
}

// mooreMinimize is the reference minimizer: subset construction over f's
// sorted alphabet, Moore refinement, quotient, trim.
func mooreMinimize(f *fa.FA) *fa.FA {
	d := buildSubsetDFA(f, f.Alphabet())
	part, blocks := d.moorePartition()
	b := fa.NewBuilder(f.Name())
	ss := b.States(blocks)
	b.Start(ss[part[0]])
	for s, to := range d.delta {
		if d.accept[s] {
			b.Accept(ss[part[s]])
		}
		for c, t := range to {
			b.Edge(ss[part[s]], d.alpha[c], ss[part[t]])
		}
	}
	return b.MustBuild().Trim()
}

// canonicalEquivalent reports language equality by comparing canonical
// forms: the Moore-minimal complete DFA over the joint alphabet, states
// renumbered in breadth-first order from the start block.
func canonicalEquivalent(f, g *fa.FA) bool {
	alpha := append(f.Alphabet(), g.Alphabet()...)
	sort.Slice(alpha, func(i, j int) bool { return alpha[i].String() < alpha[j].String() })
	var joint []event.Event
	for i, e := range alpha {
		if i == 0 || e.String() != alpha[i-1].String() {
			joint = append(joint, e)
		}
	}
	return canonical(f, joint) == canonical(g, joint)
}

func canonical(f *fa.FA, alpha []event.Event) string {
	d := buildSubsetDFA(f, alpha)
	part, blocks := d.moorePartition()
	rep := make([]int, blocks)
	for s := len(part) - 1; s >= 0; s-- {
		rep[part[s]] = s
	}
	number := map[int]int{part[0]: 0}
	queue := []int{part[0]}
	var sb strings.Builder
	for len(queue) > 0 {
		blk := queue[0]
		queue = queue[1:]
		if d.accept[rep[blk]] {
			sb.WriteString("A")
		} else {
			sb.WriteString(".")
		}
		for _, to := range d.delta[rep[blk]] {
			tb := part[to]
			if _, ok := number[tb]; !ok {
				number[tb] = len(number)
				queue = append(queue, tb)
			}
			fmt.Fprintf(&sb, " %d", number[tb])
		}
		sb.WriteString(";")
	}
	return sb.String()
}
