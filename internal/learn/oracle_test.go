package learn

import (
	"sort"
)

// This file keeps the straightforward sk-strings scan as the test oracle
// for the memoized one: every state's k-strings are recomputed on every
// scan, and every pair rebuilds both states' key sets.

// refFindMergeable scans state pairs in BFS order and returns the first
// pair satisfying the agreement criterion, or (-1, -1).
func refFindMergeable(l Learner, p *pta) (int, int) {
	order := p.states()
	strs := make(map[int][]kstring, len(order))
	for _, s := range order {
		strs[s] = refKstrings(p, s, l.K)
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if refAgree(l, strs[order[i]], strs[order[j]]) {
				return order[i], order[j]
			}
		}
	}
	return -1, -1
}

// refKstrings enumerates the strings of length ≤ k leaving state s with
// their probabilities, sorted by probability descending (ties by key).
func refKstrings(p *pta, s int, k int) []kstring {
	var out []kstring
	var walk func(state int, depth int, prefix string, prob float64)
	walk = func(state int, depth int, prefix string, prob float64) {
		state = p.find(state)
		total := refOutTotal(p, state)
		if total == 0 {
			return
		}
		n := p.nodes[state]
		if n.end > 0 {
			out = append(out, kstring{key: prefix + endMark, prob: prob * float64(n.end) / float64(total)})
		}
		if depth == k {
			if len(n.out) > 0 {
				edgeMass := float64(total-n.end) / float64(total)
				if prefix != "" {
					out = append(out, kstring{key: prefix, prob: prob * edgeMass})
				}
			}
			return
		}
		for _, key := range refSortedKeys(n.out) {
			e := n.out[key]
			walk(e.to, depth+1, prefix+key+"\x00", prob*float64(e.count)/float64(total))
		}
	}
	walk(s, 0, "", 1)
	agg := map[string]float64{}
	for _, ks := range out {
		agg[ks.key] += ks.prob
	}
	res := make([]kstring, 0, len(agg))
	for key, prob := range agg {
		res = append(res, kstring{key: key, prob: prob})
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].prob != res[j].prob {
			return res[i].prob > res[j].prob
		}
		return res[i].key < res[j].key
	})
	return res
}

func refAgree(l Learner, a, b []kstring) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	inB := refKeySet(b)
	inA := refKeySet(a)
	aInB := refCovered(refTop(a, l.S), inB)
	bInA := refCovered(refTop(b, l.S), inA)
	if l.Agreement == Or {
		return aInB || bInA
	}
	return aInB && bInA
}

func refTop(strs []kstring, s float64) []kstring {
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

func refKeySet(strs []kstring) map[string]bool {
	m := make(map[string]bool, len(strs))
	for _, ks := range strs {
		m[ks.key] = true
	}
	return m
}

func refCovered(topStrs []kstring, in map[string]bool) bool {
	for _, ks := range topStrs {
		if !in[ks.key] {
			return false
		}
	}
	return true
}

func refSortedKeys(m map[string]*medge) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// refOutTotal sums a class's outgoing weight from its edges: the ending
// count plus every edge count.
func refOutTotal(p *pta, s int) int {
	n := p.nodes[s]
	total := n.end
	for _, e := range n.out {
		total += e.count
	}
	return total
}
