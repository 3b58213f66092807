package learn

import (
	"slices"
	"strings"

	"repro/internal/trace"
)

// Agreement selects how two states' top k-string sets must relate for the
// states to be merged (the AND/OR variants of Raman and Patrick).
type Agreement int

const (
	// And merges two states only if each state's top s-fraction of
	// k-strings is a subset of the other state's k-strings.
	And Agreement = iota
	// Or merges two states if either state's top k-strings are a subset of
	// the other's k-strings.
	Or
)

// Learner configures the sk-strings method. The zero value is not useful;
// start from DefaultLearner.
type Learner struct {
	// K is the maximum k-string length considered when comparing states.
	K int
	// S is the fraction of probability mass (0 < S ≤ 1) that a state's
	// "top" k-strings must cover.
	S float64
	// Agreement is the merge criterion.
	Agreement Agreement
	// MaxMerges caps the number of merges (0 = unlimited); raising K and S
	// lowers merging, giving a larger FA that makes finer distinctions
	// among traces — the knob Section 2.1 describes for varying the
	// reference FA.
	MaxMerges int
}

// DefaultLearner is the configuration used by Strauss and Cable summaries:
// 2-strings covering half the probability mass, AND agreement.
var DefaultLearner = Learner{K: 2, S: 0.5, Agreement: And}

// endMark terminates k-strings of traces that end before k events; it
// cannot collide with an event rendering because event operations cannot be
// empty.
const endMark = "$"

// kstring is a bounded-length suffix string with its probability.
type kstring struct {
	key  string
	prob float64
}

// Learn builds the prefix-tree acceptor of the traces and merges states per
// the sk-strings criterion, returning the learned automaton with
// frequencies. An empty trace set yields a single-state automaton accepting
// nothing.
func (l Learner) Learn(name string, traces []trace.Trace) (*Result, error) {
	if l.K <= 0 {
		l.K = DefaultLearner.K
	}
	if l.S <= 0 || l.S > 1 {
		l.S = DefaultLearner.S
	}
	p := buildPTA(traces)
	m := newMerger(l, p)
	merges := 0
	for {
		a, b := m.findMergeable()
		if a < 0 {
			break
		}
		p.merge(a, b)
		merges++
		if l.MaxMerges > 0 && merges >= l.MaxMerges {
			break
		}
	}
	return p.freeze(name)
}

// merger runs the sk-strings scans over one PTA under one Learner.
//
// It memoizes each class's k-string distribution, key set and top prefix
// across scans. A memo entry records the classes its k-walk visited and the
// PTA clock when it was computed; it stays valid while none of those
// classes carries a later stamp (see pta.stamp). A merge changes exactly the
// classes it stamps, and the walk reads nothing but the classes it visits,
// so a reused entry is the distribution a fresh walk would compute, and
// every scan returns the same pair as the unmemoized one.
type merger struct {
	l     Learner
	p     *pta
	memo  []kmemo // indexed by class representative
	dists []*kmemo
}

type kmemo struct {
	valid   bool
	at      int       // p.clock when computed
	visited []int     // classes the k-walk read
	strs    []kstring // by probability descending, ties by key
	keys    []string  // the keys of strs, sorted
	top     []kstring // top(strs, S)
}

func newMerger(l Learner, p *pta) *merger {
	return &merger{l: l, p: p, memo: make([]kmemo, len(p.nodes))}
}

// distribution returns class s's memoized k-strings, recomputing them if a
// merge since the last computation changed a class the walk visited.
func (m *merger) distribution(s int) *kmemo {
	e := &m.memo[s]
	if e.valid && m.p.unchangedSince(e.visited, e.at) {
		return e
	}
	strs, visited := m.p.kstrings(s, m.l.K, e.strs[:0], e.visited[:0])
	e.keys = e.keys[:0]
	for _, ks := range strs {
		e.keys = append(e.keys, ks.key)
	}
	// Most probable first, ties by key: the order top cuts from.
	slices.SortFunc(strs, func(a, b kstring) int {
		if a.prob != b.prob {
			if a.prob > b.prob {
				return -1
			}
			return 1
		}
		return strings.Compare(a.key, b.key)
	})
	e.strs, e.visited, e.at = strs, visited, m.p.clock
	e.top = top(strs, m.l.S)
	e.valid = true
	return e
}

// findMergeable scans state pairs in BFS order and returns the first pair
// satisfying the agreement criterion, or (-1, -1).
func (m *merger) findMergeable() (int, int) {
	order := m.p.states()
	m.dists = m.dists[:0]
	for _, s := range order {
		m.dists = append(m.dists, m.distribution(s))
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if m.l.agree(m.dists[i], m.dists[j]) {
				return order[i], order[j]
			}
		}
	}
	return -1, -1
}

// unchangedSince reports whether no class in cs was stamped after clock t.
func (p *pta) unchangedSince(cs []int, t int) bool {
	for _, c := range cs {
		if p.stamp[c] > t {
			return false
		}
	}
	return true
}

// kstrings enumerates the strings of length ≤ k leaving state s with their
// probabilities, sorted by key, into out. Strings of length < k end with
// the end marker; strings cut off at length k do not. It also appends to
// visited every class the walk read, and returns both extended slices.
func (p *pta) kstrings(s int, k int, out []kstring, visited []int) ([]kstring, []int) {
	var prefix []byte
	var walk func(state int, depth int, prob float64)
	walk = func(state int, depth int, prob float64) {
		state = p.find(state)
		visited = append(visited, state)
		n := p.nodes[state]
		total := n.through
		if total == 0 {
			// Dead state with no endings: contributes nothing.
			return
		}
		if n.end > 0 {
			out = append(out, kstring{key: string(prefix) + endMark, prob: prob * float64(n.end) / float64(total)})
		}
		if depth == k {
			if len(n.out) > 0 {
				// Remaining mass for strings truncated at depth k.
				edgeMass := float64(total-n.end) / float64(total)
				if len(prefix) > 0 {
					out = append(out, kstring{key: string(prefix), prob: prob * edgeMass})
				}
			}
			return
		}
		mark := len(prefix)
		for _, e := range n.edges() {
			prefix = append(append(prefix, e.key...), 0)
			walk(e.to, depth+1, prob*float64(e.count)/float64(total))
			prefix = prefix[:mark]
		}
	}
	walk(s, 0, 1)
	// Aggregate duplicates (merging can create repeated keys via different
	// paths of equal rendering — not possible in a deterministic automaton,
	// but keep the invariant robust). The stable sort keeps equal keys in
	// walk order, so each sum adds the same terms in the same order as
	// accumulating per key during the walk would.
	slices.SortStableFunc(out, func(a, b kstring) int { return strings.Compare(a.key, b.key) })
	res := out[:0]
	for _, ks := range out {
		if n := len(res); n > 0 && res[n-1].key == ks.key {
			res[n-1].prob += ks.prob
			continue
		}
		res = append(res, ks)
	}
	return res, visited
}

// top returns the prefix of strs covering at least fraction s of the
// probability mass.
func top(strs []kstring, s float64) []kstring {
	var mass, limit float64
	for _, ks := range strs {
		limit += ks.prob
	}
	limit *= s
	for i, ks := range strs {
		mass += ks.prob
		if mass >= limit-1e-12 {
			return strs[:i+1]
		}
	}
	return strs
}

// agree applies the agreement criterion to two states' k-string
// distributions.
func (l Learner) agree(a, b *kmemo) bool {
	if len(a.strs) == 0 || len(b.strs) == 0 {
		// A state with no k-strings (dead) agrees with nothing; merging it
		// anywhere would be unconstrained generalization.
		return false
	}
	aInB := covered(a.top, b.keys)
	if l.Agreement == Or {
		return aInB || covered(b.top, a.keys)
	}
	return aInB && covered(b.top, a.keys)
}

// covered reports whether every string of topStrs is among keys (sorted).
func covered(topStrs []kstring, keys []string) bool {
	for _, ks := range topStrs {
		if _, ok := slices.BinarySearch(keys, ks.key); !ok {
			return false
		}
	}
	return true
}
