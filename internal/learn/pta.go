// Package learn implements the stochastic finite-automaton learner that
// Strauss's back end and Cable's "Show FA" summary use: Raman and Patrick's
// sk-strings method, plus the "coring" postprocessing step (dropping
// low-frequency transitions) that the paper cites as the naive
// error-removal mechanism of the earlier specification-mining work.
//
// The learner builds a frequency-annotated prefix-tree acceptor (PTA) from a
// multiset of traces and then greedily merges states whose most probable
// k-strings agree, folding any nondeterminism the merge introduces by
// recursively merging target states. Merging only ever grows the language,
// so the learned automaton accepts every training trace.
package learn

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/trace"
)

// pta is a mutable automaton under state merging. States are identified by
// dense indices into nodes; union-find tracks merged classes. Edges carry
// traversal counts, and each state counts the traces that end there.
type pta struct {
	uf    []int
	nodes []*mnode
	// clock counts merge calls. stamp[c] is the clock of the last merge
	// that changed class c — as the surviving representative (its ending
	// count, edges or edge counts grew) or as the absorbed one (it stopped
	// being a representative). A value derived from classes whose stamps
	// are all at most clock t is unchanged by everything merged after t;
	// the sk-strings scan relies on this to reuse k-string distributions.
	clock int
	stamp []int
}

type mnode struct {
	// out maps a label rendering to the outgoing edge for that label. After
	// folding, each class has at most one edge per label.
	out map[string]*medge
	// sorted caches the edges of out in key order; nil until edges
	// computes it, and reset whenever merge adds or drops a key.
	sorted []*medge
	// end counts traces ending at this state.
	end int
	// through counts traces passing through or ending at this state. Every
	// such trace either ends here or leaves along one edge, so through is
	// end plus the edges' counts — the state's total outgoing weight. Both
	// sides add up when classes merge, so the identity holds for classes.
	through int
}

type medge struct {
	key   string // label rendering, the edge's key in out
	label event.Event
	to    int
	count int
}

// buildPTA constructs the prefix-tree acceptor of the traces with
// multiplicities.
func buildPTA(traces []trace.Trace) *pta {
	p := &pta{}
	root := p.newNode()
	// One rendering buffer for every event: edge lookups index the map
	// with string(key), which does not allocate; only a new edge's key is
	// copied into the map.
	var key []byte
	for _, t := range traces {
		cur := root
		p.nodes[cur].through++
		for _, e := range t.Events {
			key = e.AppendString(key[:0])
			edge, ok := p.nodes[cur].out[string(key)]
			if !ok {
				next := p.newNode()
				edge = &medge{key: string(key), label: e, to: next}
				p.nodes[cur].out[edge.key] = edge
			}
			edge.count++
			cur = edge.to
			p.nodes[cur].through++
		}
		p.nodes[cur].end++
	}
	return p
}

func (p *pta) newNode() int {
	id := len(p.nodes)
	p.nodes = append(p.nodes, &mnode{out: map[string]*medge{}})
	p.uf = append(p.uf, id)
	p.stamp = append(p.stamp, 0)
	return id
}

func (p *pta) find(x int) int {
	for p.uf[x] != x {
		p.uf[x] = p.uf[p.uf[x]]
		x = p.uf[x]
	}
	return x
}

// merge unions the classes of a and b and folds determinism: edges with the
// same label out of the merged class have their targets merged recursively.
func (p *pta) merge(a, b int) {
	a, b = p.find(a), p.find(b)
	if a == b {
		return
	}
	// Keep the smaller index as representative for determinism.
	if b < a {
		a, b = b, a
	}
	p.uf[b] = a
	p.clock++
	p.stamp[a], p.stamp[b] = p.clock, p.clock
	na, nb := p.nodes[a], p.nodes[b]
	na.end += nb.end
	na.through += nb.through
	for key, eb := range nb.out {
		if ea, ok := na.out[key]; ok {
			ea.count += eb.count
			p.merge(ea.to, eb.to)
			// Re-resolve a: the recursive merge may have merged a itself
			// into an earlier class.
			a = p.find(a)
			na = p.nodes[a]
			p.stamp[a] = p.clock
		} else {
			na.out[key] = eb
			na.sorted = nil
		}
	}
	nb.out, nb.sorted = nil, nil
}

// states returns the live class representatives in BFS order from the root
// class, following edges with labels in sorted order.
func (p *pta) states() []int {
	root := p.find(0)
	seen := make([]bool, len(p.nodes))
	seen[root] = true
	order := []int{root}
	for i := 0; i < len(order); i++ {
		for _, e := range p.nodes[order[i]].edges() {
			to := p.find(e.to)
			if !seen[to] {
				seen[to] = true
				order = append(order, to)
			}
		}
	}
	return order
}

// edges returns the node's outgoing edges in key order. The slice is
// cached until a merge changes the key set; callers must not modify it.
func (n *mnode) edges() []*medge {
	if n.sorted == nil && len(n.out) > 0 {
		n.sorted = make([]*medge, 0, len(n.out))
		for _, e := range n.out {
			n.sorted = append(n.sorted, e)
		}
		slices.SortFunc(n.sorted, func(a, b *medge) int { return strings.Compare(a.key, b.key) })
	}
	return n.sorted
}

// Result is a learned automaton together with the transition and acceptance
// frequencies observed in training, used by coring and by summaries.
type Result struct {
	// FA is the learned automaton.
	FA *fa.FA
	// TransCount[i] is the number of training events that traversed
	// FA.Transition(i).
	TransCount []int
	// AcceptCount[s] is the number of training traces ending at state s.
	AcceptCount map[fa.State]int
}

// freeze converts the merged PTA into an immutable automaton with counts.
func (p *pta) freeze(name string) (*Result, error) {
	order := p.states()
	number := map[int]fa.State{}
	b := fa.NewBuilder(name)
	for _, s := range order {
		number[s] = b.State()
	}
	res := &Result{AcceptCount: map[fa.State]int{}}
	b.Start(number[p.find(0)])
	for _, s := range order {
		if p.nodes[s].end > 0 {
			b.Accept(number[s])
			res.AcceptCount[number[s]] = p.nodes[s].end
		}
	}
	for _, s := range order {
		for _, e := range p.nodes[s].edges() {
			b.Edge(number[s], e.label, number[p.find(e.to)])
			res.TransCount = append(res.TransCount, e.count)
		}
	}
	f, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("learn: %v", err)
	}
	res.FA = f
	if len(res.TransCount) != f.NumTransitions() {
		// Duplicate edges cannot arise: after folding, each class has at
		// most one edge per label, and classes are distinct states.
		return nil, fmt.Errorf("learn: internal error: %d counts for %d transitions",
			len(res.TransCount), f.NumTransitions())
	}
	return res, nil
}
