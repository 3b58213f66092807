package concept

import (
	"context"

	"repro/internal/bitset"
)

// BuildNaive constructs the concept lattice by closure enumeration: the set
// of intents is the closure of {all attributes} under intersection with
// object rows, and each extent is recovered as τ(intent). It is an
// independent implementation used as an oracle in property tests and as the
// baseline in the lattice-construction ablation bench
// (BenchmarkAblation_LatticeBuilders); Build is the incremental
// construction.
func BuildNaive(ctx *Context) *Lattice {
	l := &Lattice{ctx: ctx}
	allAttrs := &bitset.Set{}
	allAttrs.FillFull(ctx.NumAttributes())
	intents := map[string]*bitset.Set{allAttrs.Key(): allAttrs}
	worklist := []*bitset.Set{allAttrs}
	for len(worklist) > 0 {
		y := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		for o := 0; o < ctx.NumObjects(); o++ {
			inter := bitset.Intersect(y, ctx.Attributes(o))
			key := inter.Key()
			if _, ok := intents[key]; !ok {
				intents[key] = inter
				worklist = append(worklist, inter)
			}
		}
	}
	// Deterministic concept order: by intent size descending, then key.
	keys := make([]string, 0, len(intents))
	for k := range intents {
		keys = append(keys, k)
	}
	sortKeysBySize(keys, intents)
	for _, k := range keys {
		intent := intents[k]
		c := &Concept{ID: len(l.concepts), Extent: ctx.Tau(intent), Intent: intent}
		l.concepts = append(l.concepts, c)
	}
	l.finalize()
	return l
}

// finalize computes the Hasse diagram and the query tables serially for a
// lattice whose concepts were populated directly.
func (l *Lattice) finalize() {
	if err := l.finalizeCtx(context.Background(), 1); err != nil {
		panic("concept: finalize: " + err.Error())
	}
}

func sortKeysBySize(keys []string, intents map[string]*bitset.Set) {
	less := func(a, b string) bool {
		la, lb := intents[a].Len(), intents[b].Len()
		if la != lb {
			return la > lb
		}
		return a < b
	}
	// Insertion sort: key counts are small relative to the work of building
	// the lattice, and this avoids importing sort for a closure over maps.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

// Equal reports whether two lattices over the same context have the same
// concepts (extent/intent pairs) and the same cover relation, regardless of
// concept numbering.
func Equal(a, b *Lattice) bool {
	if a.Len() != b.Len() {
		return false
	}
	// Map concepts by intent key.
	bByIntent := map[string]*Concept{}
	for _, c := range b.concepts {
		bByIntent[c.Intent.Key()] = c
	}
	for _, ca := range a.concepts {
		cb, ok := bByIntent[ca.Intent.Key()]
		if !ok || !ca.Extent.Equal(cb.Extent) {
			return false
		}
		// Compare parent sets by intent keys.
		pa := map[string]bool{}
		for _, p := range a.parents[ca.ID] {
			pa[a.concepts[p].Intent.Key()] = true
		}
		if len(pa) != len(b.parents[cb.ID]) {
			return false
		}
		for _, p := range b.parents[cb.ID] {
			if !pa[b.concepts[p].Intent.Key()] {
				return false
			}
		}
	}
	return true
}
