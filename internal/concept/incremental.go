package concept

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/trace"
)

// This file implements incremental lattice maintenance: adding one object
// to a live lattice without rebuilding it, with results pinned
// byte-identical to a full BuildCtx rebuild over the extended context.
//
// The paper's own choice of Godin et al.'s Algorithm 1 makes this cheap:
// BuildCtx inserts objects one at a time, so adding object n to a lattice
// over objects 0..n-1 replays exactly the loop iteration the full rebuild
// would run next — the concept set, concept IDs, and extents come out
// identical by construction. Only the cover edges and the query tables
// need repair.
//
// Covers. An add never changes the order among old concepts: c ≤ d iff
// intent(d) ⊆ intent(c), and intents are immutable. So when the new row
// spawns no concepts the Hasse diagram is unchanged, and when it does,
// parent lists change only for the new concepts and for old concepts lying
// strictly below one of them (a broken or inserted cover edge at c requires
// a new concept strictly above c). A new concept takes its covers from
// linkCovers' own per-concept routine (coverWorker.covers). An old concept
// c below a new one takes as covers the minimal elements of
// S = parents_old(c) ∪ {new n : c < n}. Proof: every cover of c after the
// add lies in S — a new cover is a new concept above c, and an old cover d
// was a cover before, since an old concept strictly between c and d would
// still lie between them. Every element of S lies above c, hence at or
// above some cover, so the minimal elements of S are exactly the covers.
// This costs a few subset tests where recomputing c's covers from the row
// representatives cost a closure lookup per representative — ~340 of them
// for the bottom concept of a prefix-tree reference, on every add.
//
// Incremental mutation is not safe concurrently with queries; callers
// (cable sessions, the server) serialize access per lattice.

// AddTraceCtx appends one trace as a new object of a lattice built over a
// trace context (BuildFromTraces): the trace is simulated against the
// reference FA and its executed-transition row extends the context and the
// lattice in place. The reference FA must be the one the context was built
// from (same transition set), and it must accept the trace.
func (l *Lattice) AddTraceCtx(cc context.Context, t trace.Trace, ref *fa.FA) error {
	if ref.NumTransitions() != l.ctx.NumAttributes() {
		return fmt.Errorf("concept: reference FA %q has %d transitions, lattice context has %d attributes",
			ref.Name(), ref.NumTransitions(), l.ctx.NumAttributes())
	}
	executed, ok := ref.Executed(t)
	if !ok {
		name := t.ID
		if name == "" {
			name = fmt.Sprintf("t%d", l.ctx.NumObjects())
		}
		return fmt.Errorf("concept: reference FA %q rejects trace %q (%s)", ref.Name(), name, t.Key())
	}
	name := t.ID
	if name == "" {
		name = fmt.Sprintf("t%d", l.ctx.NumObjects())
	}
	return l.AddObjectCtx(cc, name, executed)
}

// AddObjectCtx appends one object with the given attribute row, updating
// the context, the concept set, the cover edges, and the query tables in
// place. The result is byte-identical to a full rebuild over the extended
// context. One add is atomic: cancellation is honored before any mutation,
// never in the middle of one.
func (l *Lattice) AddObjectCtx(cc context.Context, name string, row *bitset.Set) error {
	if err := cc.Err(); err != nil {
		return err
	}
	if len(l.concepts) == 0 {
		return fmt.Errorf("concept: cannot add to an empty (unbuilt) lattice")
	}
	numAttr := l.ctx.NumAttributes()
	bad := -1
	row.Range(func(a int) bool {
		if a >= numAttr {
			bad = a
			return false
		}
		return true
	})
	if bad >= 0 {
		return fmt.Errorf("concept: attribute %d out of range (%d attributes)", bad, numAttr)
	}
	sp := obs.StartSpan("lattice.incr.add")
	defer sp.End()
	l.repsEnsure()

	o := l.ctx.NumObjects()
	l.ctx.addObject(name, row)
	row = l.ctx.Attributes(o) // the context's own copy

	// Godin step: replay exactly the loop iteration BuildCtx would run for
	// object o. The new object joins reps iff its row is novel, and it must
	// be there before cover repair: candidate generation is complete only
	// over all distinct rows.
	firstNew := len(l.concepts)
	l.invEnsure()
	if l.godin == nil {
		l.godin = &godinScratch{}
	}
	l.godin.godinWordsEnsure(l)
	l.godinInsert(o, row, l.godin)

	l.repairCoversAfterAdd(firstNew)
	l.rescanTopBottom()
	l.updateTablesAfterAdd(o)
	obs.Count("lattice.incr.adds", 1)
	return nil
}

// updateTablesAfterAdd extends the query tables for one appended object.
// The ObjectConcept entries of earlier objects are stable under an add —
// concept IDs never change, intents are immutable, and old rows are
// untouched, so each σ({o'}) resolves to the same concept — which reduces
// the table work from numObj index lookups to one. AttributeConcept
// changes only for the attributes of row(o), the only columns that gained
// an object, and there σ(τ({a}) ∪ {o}) = σ(τ({a})) ∩ row(o): the new μa is
// one lookup of intent(μa) ∩ row(o) per row attribute.
func (l *Lattice) updateTablesAfterAdd(o int) {
	if len(l.objConcept) != o || len(l.attrConcept) != l.ctx.NumAttributes() {
		// A lattice whose tables were never built (or are from a foreign
		// constructor) gets the full pass.
		l.mustBuildTables()
		return
	}
	sp := obs.StartSpan("lattice.tables")
	defer sp.End()
	row := l.ctx.Attributes(o)
	id := l.idx.lookup(l.concepts, row)
	if id < 0 {
		panic("concept: object row is not a closed intent")
	}
	l.objConcept = append(l.objConcept, id)
	scratch := &bitset.Set{}
	row.Range(func(a int) bool {
		bitset.IntersectInto(scratch, l.concepts[l.attrConcept[a]].Intent, row)
		id := l.idx.lookup(l.concepts, scratch)
		if id < 0 {
			panic("concept: attribute closure is not a closed intent")
		}
		l.attrConcept[a] = id
		return true
	})
}

// repairCoversAfterAdd fixes the Hasse diagram after the Godin step
// appended concepts firstNew.. (if any). Nothing else moves: see the file
// comment for why only the new concepts and the old concepts strictly
// below one of them change parents, and why the latter's new covers are
// the minimal elements of their old parents plus the new concepts above
// them. New concepts take their covers from linkCovers' own per-concept
// routine; children lists are patched from the per-concept diffs.
func (l *Lattice) repairCoversAfterAdd(firstNew int) {
	n := len(l.concepts)
	if n == firstNew {
		return
	}
	s, w := l.coverScratch()
	for ci := firstNew; ci < n; ci++ {
		l.parents = append(l.parents, nil)
		l.children = append(l.children, []int{})
	}
	for ci := firstNew; ci < n; ci++ {
		covers := w.covers(s, ci)
		np := make([]int, len(covers))
		for i, cj := range covers {
			np[i] = int(cj)
		}
		insertionSortInts(np)
		l.setParents(ci, np)
	}
	// The minimal elements of parents_old(c) ∪ ups, where ups are the new
	// concepts above c. The old parents are an antichain, so one of them is
	// dropped only when a new concept lies below it. A new concept u' stays
	// when no old parent lies below it; other new concepts need no test:
	// if c < u < u' with u new and intent(u') = Y' ∩ row for an old intent
	// Y', the old intent D = intent(c) ∩ Y' lies strictly between (D ⊋
	// intent(u') as D is old, and D = intent(c) would give intent(u) ⊆
	// intent(c) ∩ row ⊆ intent(u')), so an old parent of c lies below u'.
	// Old IDs precede new ones, so the list comes out ascending.
	var ups []int
	for ci := 0; ci < firstNew; ci++ {
		ce := l.concepts[ci].Extent
		ups = ups[:0]
		for ni := firstNew; ni < n; ni++ {
			if ce.SubsetOf(l.concepts[ni].Extent) {
				ups = append(ups, ni)
			}
		}
		if len(ups) == 0 {
			continue
		}
		old := l.parents[ci]
		np := make([]int, 0, len(old)+len(ups))
		for _, p := range old {
			if !l.anyBelow(ups, p) {
				np = append(np, p)
			}
		}
		for _, u := range ups {
			if !l.anyBelow(old, u) {
				np = append(np, u)
			}
		}
		l.setParents(ci, np)
	}
}

// anyBelow reports whether some concept of xs lies strictly below y, which
// is not in xs. Extents are unique per concept, so SubsetOf is strict.
func (l *Lattice) anyBelow(xs []int, y int) bool {
	ye := l.concepts[y].Extent
	for _, x := range xs {
		if l.concepts[x].Extent.SubsetOf(ye) {
			return true
		}
	}
	return false
}

// setParents replaces the parent list of ci with the ascending list np and
// patches the children lists from the sorted old/new diff.
func (l *Lattice) setParents(ci int, np []int) {
	old := l.parents[ci] // nil for new concepts
	l.parents[ci] = np
	i, j := 0, 0
	for i < len(old) || j < len(np) {
		switch {
		case j >= len(np) || (i < len(old) && old[i] < np[j]):
			l.children[old[i]] = removeSortedInt(l.children[old[i]], ci)
			i++
		case i >= len(old) || np[j] < old[i]:
			l.children[np[j]] = insertSortedInt(l.children[np[j]], ci)
			j++
		default:
			i++
			j++
		}
	}
}

// rescanTopBottom recomputes top and bottom the way linkCovers does:
// first-win argmax/argmin over extent sizes in ID order.
func (l *Lattice) rescanTopBottom() {
	l.top, l.bottom = 0, 0
	if len(l.concepts) == 0 {
		return
	}
	topSize, botSize := l.concepts[0].Extent.Len(), l.concepts[0].Extent.Len()
	for i, c := range l.concepts {
		sz := c.Extent.Len()
		if sz > topSize {
			l.top, topSize = i, sz
		}
		if sz < botSize {
			l.bottom, botSize = i, sz
		}
	}
}

// repsEnsure lazily builds the row-representative tables (one object per
// distinct context row, first-occurrence order). Replay caches start empty
// (upTo 0): the first repeat of each row folds the existing concepts in.
func (l *Lattice) repsEnsure() {
	if l.repRows != nil {
		return
	}
	numObj := l.ctx.NumObjects()
	l.reps = make([]int32, 0, numObj)
	l.repRows = make(map[string]*rowCache, numObj)
	var keyBuf []byte
	for o := 0; o < numObj; o++ {
		keyBuf = l.ctx.Attributes(o).AppendKey(keyBuf[:0])
		if _, dup := l.repRows[string(keyBuf)]; dup {
			continue
		}
		l.repRows[string(keyBuf)] = &rowCache{}
		l.reps = append(l.reps, int32(o))
	}
}

// insertSortedInt inserts x into ascending xs, keeping it sorted. xs slices
// may alias a shared slab with exact capacity, so growth reallocates before
// shifting.
func insertSortedInt(xs []int, x int) []int {
	i := sort.SearchInts(xs, x)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

// removeSortedInt deletes x from ascending xs in place; absent x is a
// programming error upstream and panics.
func removeSortedInt(xs []int, x int) []int {
	i := sort.SearchInts(xs, x)
	if i >= len(xs) || xs[i] != x {
		panic("concept: cover edge to remove is missing")
	}
	copy(xs[i:], xs[i+1:])
	return xs[:len(xs)-1]
}
