package concept

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/obs"
)

// Concept is a node of the concept lattice: a maximal rectangle (X, Y) of
// the context with X = τ(Y) and Y = σ(X).
type Concept struct {
	// ID is the concept's index within its lattice.
	ID int
	// Extent is the object set X.
	Extent *bitset.Set
	// Intent is the attribute set Y.
	Intent *bitset.Set
}

// Lattice is the complete lattice of all concepts of a context, with cover
// (Hasse-diagram) edges. Concept 0 is not necessarily the top; use Top and
// Bottom.
type Lattice struct {
	ctx      *Context
	concepts []*Concept
	parents  [][]int // cover edges upward (larger extents)
	children [][]int // cover edges downward (smaller extents)
	top      int
	bottom   int

	// idx maps intents to concept IDs by hashing bitset words directly; it
	// backs byIntent so Meet and Join are hash lookups instead of
	// linear scans, with no key-byte materialization.
	idx intentIndex
	// objConcept[o] is γo (ObjectConcept), attrConcept[a] is μa
	// (AttributeConcept), both precomputed once per lattice.
	objConcept  []int
	attrConcept []int

	// arena backs the extent/intent bitsets of a Build-constructed lattice.
	// The reference pins the slabs for the lattice's lifetime; arena-backed
	// sets must not outlive the lattice (see bitset.Arena and the cablevet
	// poolarena check).
	arena *bitset.Arena

	// reps holds one representative object per distinct context row in
	// first-occurrence order (the dedup both linkCovers and the pruned Godin
	// step rely on), and repRows maps each distinct row key to its replay
	// cache. Maintained incrementally by builds, built lazily by repsEnsure
	// otherwise; repRows == nil means not built.
	reps    []int32
	repRows map[string]*rowCache

	// inv is the per-attribute inverted concept index the pruned Godin scan
	// intersects against; nil until a build or invEnsure creates it.
	inv *invIndex
	// hdr is the current concept-header slab chunk (see newConcept).
	hdr []Concept
	// godin caches the insertion scratch across incremental adds.
	godin *godinScratch
	// cover caches the cover-routine state across incremental adds; the
	// build's linkCovers hands it over, repairCoversAfterAdd keeps it in
	// step.
	cover *coverCache
}

// newConcept appends a concept with the next ID, indexing its intent in idx
// and (when maintained) the inverted attribute index. Headers come from
// chunked slabs: one allocation per 256 concepts, not per concept.
func (l *Lattice) newConcept(extent, intent *bitset.Set) *Concept {
	if len(l.hdr) == cap(l.hdr) {
		l.hdr = make([]Concept, 0, 256)
	}
	l.hdr = l.hdr[:len(l.hdr)+1]
	c := &l.hdr[len(l.hdr)-1]
	*c = Concept{ID: len(l.concepts), Extent: extent, Intent: intent}
	l.concepts = append(l.concepts, c)
	l.idx.insert(l.concepts, c.ID)
	if l.inv != nil {
		l.inv.register(c)
	}
	return c
}

// BuildOption configures a lattice build.
type BuildOption func(*buildConfig)

type buildConfig struct {
	workers int
}

// WithWorkers bounds the worker pool of the build's cover-linking pass; the
// Godin insertion scan is serial. 0 — and omitting the option — means
// GOMAXPROCS; 1 forces the serial path.
func WithWorkers(n int) BuildOption {
	return func(c *buildConfig) { c.workers = n }
}

func applyOptions(opts []BuildOption) buildConfig {
	var cfg buildConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// Build constructs the concept lattice of a context by incremental object
// insertion in the style of Godin et al.'s Algorithm 1: objects are added
// one at a time; each existing concept whose intent survives intersection
// with the new object's row is modified in place, and each novel
// intersection spawns a new concept. Cover edges are computed in a final
// pass. It is BuildCtx without cancellation.
func Build(ctx *Context) *Lattice {
	l, err := BuildCtx(context.Background(), ctx)
	if err != nil {
		// Background is never done, so BuildCtx cannot fail.
		panic("concept: Build: " + err.Error())
	}
	return l
}

// BuildCtx is Build with cancellation for callers serving remote requests:
// the done state of cc is checked between object insertions and between
// strides of the cover-linking scan, so a cancelled build of a large
// lattice returns cc.Err() promptly instead of running to completion.
//
// All extent and intent storage is carved from one per-build arena, so a
// build performs O(1) heap allocations for set storage regardless of
// concept count; the arena is owned by (and dies with) the returned
// Lattice.
func BuildCtx(cc context.Context, ctx *Context, opts ...BuildOption) (*Lattice, error) {
	cfg := applyOptions(opts)
	sp := obs.StartSpan("lattice.build")
	defer sp.End()
	arena := bitset.NewArena()
	numObj, numAttr := ctx.NumObjects(), ctx.NumAttributes()
	l := &Lattice{ctx: ctx, arena: arena, inv: newInvIndex(numAttr)}
	l.idx.initFor(256)

	// Seed with the bottom concept: intent = all attributes, extent = the
	// objects (none yet) having all of them. Keeping the bottom in the
	// lattice makes the concept set closed under intersection of intents.
	// Extents get capacity for the full object universe so in-place Add
	// never leaves the arena.
	l.newConcept(arena.Set(numObj, numObj), arena.Set(numAttr, numAttr).FillFull(numAttr))

	done := cc.Done()
	g := &godinScratch{}
	l.repRows = make(map[string]*rowCache, numObj)
	l.reps = make([]int32, 0, numObj)
	g.godinWordsEnsure(l)
	for o := 0; o < numObj; o++ {
		select {
		case <-done:
			return nil, cc.Err()
		default:
		}
		l.godinInsert(o, ctx.Attributes(o), g)
	}
	if err := l.finalizeCtx(cc, cfg.workers); err != nil {
		return nil, err
	}
	obs.Observe("lattice.concepts", int64(len(l.concepts)))
	return l, nil
}

// finalizeCtx computes the Hasse diagram and the query tables, with
// cancellation and a worker bound for the cover-linking scan. The intent
// index is built here if the constructing algorithm did not maintain one
// incrementally.
func (l *Lattice) finalizeCtx(cc context.Context, workers int) error {
	if l.idx.n == 0 && len(l.concepts) > 0 {
		l.idx.initFor(len(l.concepts))
		for _, c := range l.concepts {
			l.idx.insert(l.concepts, c.ID)
		}
	}
	if err := l.linkCovers(cc, workers); err != nil {
		return err
	}
	l.mustBuildTables()
	return nil
}

// buildTables precomputes the ObjectConcept and AttributeConcept lookup
// tables. γo has intent σ({o}) = row(o); μa has intent σ(τ({a})). Both are
// closed intents of a consistent lattice, so the index resolves them
// directly; the error reports a miss, which only deserialized (untrusted)
// state can produce.
func (l *Lattice) buildTables() error {
	sp := obs.StartSpan("lattice.tables")
	defer sp.End()
	scratch := &bitset.Set{}
	l.objConcept = make([]int, l.ctx.NumObjects())
	for o := range l.objConcept {
		id := l.idx.lookup(l.concepts, l.ctx.Attributes(o))
		if id < 0 {
			return fmt.Errorf("row of object %d is not a closed intent", o)
		}
		l.objConcept[o] = id
	}
	l.attrConcept = make([]int, l.ctx.NumAttributes())
	for a := range l.attrConcept {
		l.ctx.SigmaInto(scratch, l.ctx.Objects(a))
		id := l.idx.lookup(l.concepts, scratch)
		if id < 0 {
			return fmt.Errorf("closure of attribute %d is not a closed intent", a)
		}
		l.attrConcept[a] = id
	}
	return nil
}

// mustBuildTables is buildTables for lattices this package constructed,
// where a miss is a bug.
func (l *Lattice) mustBuildTables() {
	if err := l.buildTables(); err != nil {
		panic("concept: " + err.Error())
	}
}

// tauUpToArena computes τ(y) restricted to objects 0..limit inclusive, into
// an arena-backed set with capacity for the full object universe (so the
// Godin loop can later Add objects in place).
func tauUpToArena(a *bitset.Arena, ctx *Context, y *bitset.Set, limit int) *bitset.Set {
	out := a.Set(0, ctx.NumObjects())
	out.FillFull(limit + 1)
	y.Range(func(attr int) bool {
		out.IntersectWith(ctx.Objects(attr))
		return true
	})
	return out
}

// linkChunk is the stride of the parallel cover-linking scan: workers claim
// chunks of this many concepts from an atomic counter, and cancellation is
// checked between chunks.
const linkChunk = 64

// linkCovers computes the Hasse diagram: c is a child of d iff
// extent(c) ⊂ extent(d) with no concept strictly between.
//
// For each concept c = (X, Y) the upper covers are found through the intent
// index rather than by scanning all concepts: for every object o ∉ X the
// closure σ(X ∪ {o}) = Y ∩ row(o) is a closed intent, so the concept
// immediately above c that absorbs o is a single hash lookup. Every concept
// strictly above c is ≥ one of these candidates, so the upper covers are
// exactly the candidates that are minimal by extent inclusion — determined
// by testing candidates one extent-size layer at a time against the covers
// already accepted from smaller layers. Worst case O(n·|O|) lookups plus a
// few subset tests among candidates, versus the all-pairs-plus-dominated
// scan (cubic in concept count) this replaces.
//
// Three refinements over the direct form: (1) only one representative per
// distinct context row is scanned — duplicate rows yield identical closures
// and identical extent membership, so at trace-corpus scale (many traces,
// few distinct transition sets) the scan shrinks by orders of magnitude;
// (2) on universes wider than one word, an intent of at most 64 attributes
// is projected onto each representative row through per-attribute
// postings, so closures are compared as words and only the distinct ones
// are materialized and looked up (see coverWorker.projectedCands); (3)
// concepts are partitioned across a worker pool — per-concept work touches
// only read-only shared state, so workers claim chunks from an atomic
// counter and write disjoint out-slots, making the result bit-identical to
// the serial scan for any worker count.
func (l *Lattice) linkCovers(cc context.Context, workers int) error {
	sp := obs.StartSpan("lattice.link_covers")
	defer sp.End()
	n := len(l.concepts)
	l.parents = make([][]int, n)
	l.children = make([][]int, n)
	if n == 0 {
		l.top, l.bottom = 0, 0
		return nil
	}
	s := l.newCoverScan()
	sizes := s.sizes
	l.top, l.bottom = 0, 0
	for i := range sizes {
		if sizes[i] > sizes[l.top] {
			l.top = i
		}
		if sizes[i] < sizes[l.bottom] {
			l.bottom = i
		}
	}

	// out[ci] receives ci's covers; each worker writes only the slots of
	// chunks it claimed, so the slice needs no synchronization beyond the
	// pool's WaitGroup.
	out := make([][]int32, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	done := cc.Done()
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	var totalLayers, totalCands int64
	if workers <= 1 || n < 2*linkChunk {
		w := newCoverWorker(s)
		for ci := 0; ci < n; ci++ {
			if ci%linkChunk == 0 && cancelled() {
				return cc.Err()
			}
			out[ci] = w.covers(s, ci)
		}
		totalLayers, totalCands = w.layers, w.cands
		obs.SetGauge("lattice.linkcovers.workers", 1)
	} else {
		numChunks := (n + linkChunk - 1) / linkChunk
		if workers > numChunks {
			workers = numChunks
		}
		ws := make([]*coverWorker, workers)
		busy := make([]time.Duration, workers)
		var next atomic.Int64
		next.Store(-1)
		start := time.Now()
		var wg sync.WaitGroup
		for wi := 0; wi < workers; wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				w := newCoverWorker(s)
				ws[wi] = w
				for !cancelled() {
					chunk := int(next.Add(1))
					if chunk >= numChunks {
						return
					}
					hi := (chunk + 1) * linkChunk
					if hi > n {
						hi = n
					}
					t0 := time.Now()
					for ci := chunk * linkChunk; ci < hi; ci++ {
						out[ci] = w.covers(s, ci)
					}
					busy[wi] += time.Since(t0)
				}
			}(wi)
		}
		wg.Wait()
		if cancelled() {
			return cc.Err()
		}
		elapsed := time.Since(start)
		for _, w := range ws {
			totalLayers += w.layers
			totalCands += w.cands
		}
		obs.SetGauge("lattice.linkcovers.workers", int64(workers))
		if m := obs.Default(); m != nil && elapsed > 0 {
			util := m.Histogram("lattice.linkcovers.worker_util_pct")
			for _, b := range busy {
				util.Observe(int64(100 * b / elapsed))
			}
		}
	}
	obs.Count("lattice.linkcovers.layers", totalLayers)
	obs.Count("lattice.linkcovers.candidates", totalCands)

	// Deterministic merge: per-concept covers re-sorted ascending by ID into
	// one parent slab; children recovered by a counting pass, filled in
	// ascending ci order so each list comes out sorted.
	totalEdges := 0
	for _, cs := range out {
		totalEdges += len(cs)
	}
	parentSlab := make([]int, totalEdges)
	pos := 0
	for ci, cs := range out {
		p := parentSlab[pos : pos : pos+len(cs)]
		for _, cj := range cs {
			p = append(p, int(cj))
		}
		insertionSortInts(p)
		l.parents[ci] = p
		pos += len(cs)
	}
	childCount := make([]int, n)
	for _, cs := range out {
		for _, cj := range cs {
			childCount[cj]++
		}
	}
	childSlab := make([]int, totalEdges)
	pos = 0
	for i, cnt := range childCount {
		l.children[i] = childSlab[pos : pos : pos+cnt]
		pos += cnt
	}
	for ci := 0; ci < n; ci++ {
		for _, p := range l.parents[ci] {
			l.children[p] = append(l.children[p], ci)
		}
	}
	// Incremental adds repair covers with the same routine; hand them the
	// scan state.
	l.cover = &coverCache{scan: s}
	return nil
}

// coverScan is the state the per-concept cover routine reads: built once
// per linkCovers pass and shared read-only by its workers, then kept on the
// lattice (coverCache) and brought up to date for incremental cover repair.
type coverScan struct {
	l      *Lattice
	numObj int
	reps   []int32
	// sizes[id] is the extent size of concept id.
	sizes []int32
	// attrReps[a] is the set of rep POSITIONS (indices into reps) whose row
	// contains attribute a. The union over a concept's intent is exactly the
	// reps whose closure against that intent is non-empty: reps outside the
	// union close to ∅, and since a rep inside the extent always carries the
	// whole intent, every outside rep is automatically outside the extent
	// too. They all name one candidate — the ∅-intent concept — which must
	// exist whenever any of them does (intersections of closed intents are
	// closed), so the per-rep scan collapses to the in-mask reps plus at
	// most one appended candidate.
	attrReps []bitset.Set
	// emptyID is the ∅-intent concept, or -1.
	emptyID int
	// On one-word attribute universes (≤64 attributes — every shipped
	// corpus) intents and rows fit in registers: the closure is one AND and
	// known intents are probed through a flat word table, skipping the
	// Set-walking Equal in the index probe. Both tables are nil on wider
	// universes.
	intentWord []uint64
	repWord    []uint64
}

// newCoverScan builds the cover-routine state over the lattice's current
// concepts and row representatives.
func (l *Lattice) newCoverScan() *coverScan {
	l.repsEnsure()
	s := &coverScan{
		l:        l,
		sizes:    make([]int32, 0, len(l.concepts)),
		attrReps: make([]bitset.Set, l.ctx.NumAttributes()),
	}
	if l.ctx.NumAttributes() <= wordBitsPerSet {
		s.intentWord = make([]uint64, 0, len(l.concepts))
		s.repWord = make([]uint64, 0, len(l.reps))
	}
	s.sync()
	return s
}

// sync brings the scan up to date with the lattice: extent sizes are
// re-read, postings and row words are appended for the reps added since
// the last sync, and intent words for the newer concepts (intents and rows
// never change, so older entries stay valid).
func (s *coverScan) sync() {
	l := s.l
	indexed := len(s.reps)
	s.numObj = l.ctx.NumObjects()
	s.reps = l.reps
	s.sizes = s.sizes[:0]
	for _, c := range l.concepts {
		s.sizes = append(s.sizes, int32(c.Extent.Len()))
	}
	for k := indexed; k < len(l.reps); k++ {
		row := l.ctx.Attributes(int(l.reps[k]))
		row.Range(func(a int) bool {
			s.attrReps[a].Add(k)
			return true
		})
		if s.repWord != nil {
			s.repWord = append(s.repWord, word0(row))
		}
	}
	if s.intentWord != nil {
		for i := len(s.intentWord); i < len(l.concepts); i++ {
			s.intentWord = append(s.intentWord, word0(l.concepts[i].Intent))
		}
	}
	s.emptyID = l.idx.lookup(l.concepts, &bitset.Set{})
}

// coverCache keeps the cover-routine state and one worker's scratch across
// incremental adds, the way godinScratch keeps the insertion scratch.
type coverCache struct {
	scan *coverScan
	w    *coverWorker
}

// coverScratch returns the lattice's cover-routine state, synced with the
// current concepts and reps, and its reusable worker.
func (l *Lattice) coverScratch() (*coverScan, *coverWorker) {
	cc := l.cover
	if cc == nil {
		cc = &coverCache{scan: l.newCoverScan()}
		l.cover = cc
	} else {
		cc.scan.sync()
	}
	if cc.w == nil {
		cc.w = newCoverWorker(cc.scan)
	} else {
		cc.w.fit(cc.scan)
	}
	return cc.scan, cc.w
}

// coverWorker is the per-goroutine scratch of the cover routine.
type coverWorker struct {
	scratch bitset.Set
	mask    bitset.Set // union of attrReps rows over the concept's intent
	seen    []int32    // seen[id] == gen marks id as a candidate of the current concept
	gen     int32
	cand    []int32
	block   []int32 // cover output; returned slices point into retired blocks
	// Projected-kernel scratch: proj[k] is the projection of rep k's row
	// onto the intent's attributes attrs, touched lists the reps with a
	// non-zero projection, and distinct dedupes the projections.
	proj     []uint64
	touched  []int32
	attrs    []int32
	distinct projSet
	layers   int64
	cands    int64
}

func newCoverWorker(s *coverScan) *coverWorker {
	w := &coverWorker{
		cand:  make([]int32, 0, len(s.reps)),
		block: make([]int32, 0, 4096),
	}
	w.fit(s)
	return w
}

// fit grows the per-concept and per-rep tables to the scan's current size.
func (w *coverWorker) fit(s *coverScan) {
	if n := len(s.sizes); len(w.seen) < n {
		w.seen = append(w.seen, make([]int32, n-len(w.seen))...)
	}
	if s.intentWord == nil && len(w.proj) < len(s.reps) {
		w.proj = append(w.proj, make([]uint64, len(s.reps)-len(w.proj))...)
	}
}

// covers computes the upper covers of concept ci — the candidates
// {concept(Y ∩ row(o)) : o ∉ X}, over one representative o per distinct
// row, that are minimal by extent — in (extent size, ID) order. The result
// aliases the worker's output block.
func (w *coverWorker) covers(s *coverScan, ci int) []int32 {
	if int(s.sizes[ci]) == s.numObj {
		return nil // the top concept has no parents
	}
	l := s.l
	c := l.concepts[ci]
	var cand []int32
	var inMask int
	if s.intentWord == nil && c.Intent.Len() <= wordBitsPerSet {
		cand, inMask = w.projectedCands(s, c)
	} else {
		w.gen++
		if w.gen == 0 { // stamp wrapped: reset and restart generations
			for i := range w.seen {
				w.seen[i] = 0
			}
			w.gen = 1
		}
		// Collect the deduplicated candidate set {concept(Y ∩ row(o))},
		// visiting only reps sharing ≥1 attribute with the intent.
		w.mask.Clear()
		c.Intent.Range(func(a int) bool {
			w.mask.UnionWith(&s.attrReps[a])
			return true
		})
		inMask = w.mask.Len()
		cand = w.cand[:0]
		if s.intentWord != nil {
			yw := s.intentWord[ci]
			w.mask.Range(func(k int) bool {
				if c.Extent.Has(int(s.reps[k])) {
					return true
				}
				id := l.idx.lookupWord(s.intentWord, yw&s.repWord[k])
				if id < 0 {
					panic("concept: closure missing from intent index")
				}
				if w.seen[id] != w.gen {
					w.seen[id] = w.gen
					cand = append(cand, int32(id))
				}
				return true
			})
		} else {
			w.mask.Range(func(k int) bool {
				o := int(s.reps[k])
				if c.Extent.Has(o) {
					return true
				}
				bitset.IntersectInto(&w.scratch, c.Intent, l.ctx.Attributes(o))
				id := l.idx.lookup(l.concepts, &w.scratch)
				if id < 0 {
					panic("concept: closure missing from intent index")
				}
				if w.seen[id] != w.gen {
					w.seen[id] = w.gen
					cand = append(cand, int32(id))
				}
				return true
			})
		}
	}
	if inMask < len(s.reps) {
		// Some rep is disjoint from the intent, so ∅ is a closed intent
		// and its concept is a candidate (in-mask reps never produce it:
		// their closures contain a shared attribute).
		if s.emptyID < 0 {
			panic("concept: closure missing from intent index")
		}
		cand = append(cand, int32(s.emptyID))
	}
	w.cand = cand
	w.cands += int64(len(cand))
	return w.minimal(s, cand)
}

// projectedCands is the candidate collection for an intent Y of at most
// 64 attributes over a wider universe. Each in-mask rep's row is projected
// onto Y — bit i set iff the row holds Y's i-th attribute — by walking the
// postings of Y's attributes, which costs what the intent touches instead
// of a sweep of the universe's words per rep. A full projection means the
// row contains Y, which is exactly a rep inside the extent τ(Y); the rest
// are deduplicated as words, and each distinct projection — a distinct
// closure Y ∩ row, hence a distinct concept — is materialized and looked
// up once. It returns the candidates and the number of in-mask reps.
func (w *coverWorker) projectedCands(s *coverScan, c *Concept) ([]int32, int) {
	l := s.l
	w.attrs = c.Intent.AppendElems32(w.attrs[:0])
	touched := w.touched[:0]
	for i, a := range w.attrs {
		bit := uint64(1) << uint(i)
		s.attrReps[a].Range(func(k int) bool {
			if w.proj[k] == 0 {
				touched = append(touched, int32(k))
			}
			w.proj[k] |= bit
			return true
		})
	}
	w.touched = touched
	full := ^uint64(0) >> uint(wordBitsPerSet-len(w.attrs))
	w.distinct.reset(len(touched))
	cand := w.cand[:0]
	for _, k := range touched {
		p := w.proj[k]
		w.proj[k] = 0
		if p == full || !w.distinct.add(p) {
			continue
		}
		w.scratch.Clear()
		for q := p; q != 0; q &= q - 1 {
			w.scratch.Add(int(w.attrs[bits.TrailingZeros64(q)]))
		}
		id := l.idx.lookup(l.concepts, &w.scratch)
		if id < 0 {
			panic("concept: closure missing from intent index")
		}
		cand = append(cand, int32(id))
	}
	return cand, len(touched)
}

// minimal returns the elements of cand that are minimal by extent
// inclusion, in (extent size, ID) order — the size-layer order in which a
// candidate is a cover iff no cover accepted from an earlier (smaller)
// layer sits inside it. cand is sorted in place; the result aliases the
// worker's output block.
func (w *coverWorker) minimal(s *coverScan, cand []int32) []int32 {
	sizes := s.sizes
	// Size-layer order: ascending extent size, ties by ID for determinism
	// (the total order also erases any candidate-order difference versus
	// the unpruned per-rep scan). Insertion sort for the short lists that
	// dominate; slices.SortFunc above the cutoff.
	if len(cand) <= insertionSortCutoff {
		for i := 1; i < len(cand); i++ {
			for j := i; j > 0 && coverLess(sizes, cand[j], cand[j-1]); j-- {
				cand[j], cand[j-1] = cand[j-1], cand[j]
			}
		}
	} else {
		slices.SortFunc(cand, func(a, b int32) int {
			if sizes[a] != sizes[b] {
				return int(sizes[a] - sizes[b])
			}
			return int(a - b)
		})
	}
	if len(cand) > 0 {
		w.layers++
		for i := 1; i < len(cand); i++ {
			if sizes[cand[i]] != sizes[cand[i-1]] {
				w.layers++
			}
		}
	}
	if cap(w.block)-len(w.block) < len(cand) {
		// Retired blocks stay referenced by earlier results.
		w.block = make([]int32, 0, max(4096, len(cand)))
	}
	concepts := s.l.concepts
	start := len(w.block)
	for _, cj := range cand {
		ce := concepts[cj].Extent
		dominated := false
		for _, k := range w.block[start:] {
			if concepts[k].Extent.SubsetOf(ce) {
				dominated = true
				break
			}
		}
		if !dominated {
			w.block = append(w.block, cj)
		}
	}
	return w.block[start:len(w.block):len(w.block)]
}

// coverLess is the (extent size, ID) order of the size layers.
func coverLess(sizes []int32, a, b int32) bool {
	if sizes[a] != sizes[b] {
		return sizes[a] < sizes[b]
	}
	return a < b
}

func wordsFor(n int) int { return (n + 63) / 64 }

// insertionSortCutoff is the length above which candidate and cover-list
// sorts switch from insertion sort (branch-cheap on the short lists that
// dominate) to the stdlib sort (O(n log n) on the large layers where the
// quadratic scan used to show up in profiles).
const insertionSortCutoff = 32

func insertionSortInts(xs []int) {
	if len(xs) > insertionSortCutoff {
		slices.Sort(xs)
		return
	}
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Context returns the context the lattice was built from.
func (l *Lattice) Context() *Context { return l.ctx }

// Len returns the number of concepts.
func (l *Lattice) Len() int { return len(l.concepts) }

// Concept returns the concept with the given ID.
func (l *Lattice) Concept(id int) *Concept { return l.concepts[id] }

// Concepts returns all concepts; the slice is shared and must not be
// mutated.
func (l *Lattice) Concepts() []*Concept { return l.concepts }

// Top returns the ID of the top concept (extent = all objects).
func (l *Lattice) Top() int { return l.top }

// Bottom returns the ID of the bottom concept (intent = all attributes).
func (l *Lattice) Bottom() int { return l.bottom }

// Valid reports whether id names a concept of this lattice. Callers
// handling untrusted IDs (e.g. a network service) check Valid before using
// the positional accessors.
func (l *Lattice) Valid(id int) bool { return l.validID(id) }

// Parents returns the IDs of the concepts covering id (immediately above),
// or nil when id is out of range.
func (l *Lattice) Parents(id int) []int {
	if !l.validID(id) {
		return nil
	}
	return l.parents[id]
}

// Children returns the IDs of the concepts covered by id (immediately
// below), or nil when id is out of range. These are the "concepts
// immediately below this concept" a Cable user descends into.
func (l *Lattice) Children(id int) []int {
	if !l.validID(id) {
		return nil
	}
	return l.children[id]
}

// Meet returns the ID of the greatest lower bound of a and b: the concept
// with extent closure of extent(a) ∩ extent(b). ok is false when either ID
// is out of range or the lattice's index no longer matches its context (a
// stale lattice); the result is only meaningful when ok is true.
func (l *Lattice) Meet(a, b int) (id int, ok bool) {
	if !l.validID(a) || !l.validID(b) {
		return 0, false
	}
	ext := bitset.Intersect(l.concepts[a].Extent, l.concepts[b].Extent)
	intent := l.ctx.Sigma(ext)
	return l.byIntent(intent)
}

// Join returns the ID of the least upper bound of a and b, with the same
// ok semantics as Meet.
func (l *Lattice) Join(a, b int) (id int, ok bool) {
	if !l.validID(a) || !l.validID(b) {
		return 0, false
	}
	intent := bitset.Intersect(l.concepts[a].Intent, l.concepts[b].Intent)
	return l.byIntent(l.ctx.Sigma(l.ctx.Tau(intent)))
}

// validID reports whether id names a concept of this lattice.
func (l *Lattice) validID(id int) bool { return id >= 0 && id < len(l.concepts) }

// byIntent finds the concept with exactly this intent. For a closed intent
// of this lattice's context the lookup always succeeds; ok is false when
// the intent is not closed here — the symptom of an object set from a
// foreign context or of a lattice that no longer matches its context.
func (l *Lattice) byIntent(intent *bitset.Set) (id int, ok bool) {
	id = l.idx.lookup(l.concepts, intent)
	if id < 0 {
		return 0, false
	}
	return id, true
}

// AttributeConcept returns the ID of the maximal concept whose intent
// contains attribute a (μa): the concept (τ({a}), σ(τ({a}))). Reduced
// labeling shows each attribute at this concept only. The table is
// precomputed once per lattice.
func (l *Lattice) AttributeConcept(a int) int { return l.attrConcept[a] }

// ObjectConcept returns the ID of the minimal concept whose extent contains
// object o (γo). Reduced labeling shows each object at this concept only.
// The table is precomputed once per lattice.
func (l *Lattice) ObjectConcept(o int) int { return l.objConcept[o] }

// TopDownOrder returns concept IDs in breadth-first order from the top —
// the traversal order of the Top-down strategy.
func (l *Lattice) TopDownOrder() []int {
	seen := make([]bool, len(l.concepts))
	order := make([]int, 0, len(l.concepts))
	queue := []int{l.top}
	seen[l.top] = true
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, ch := range l.children[id] {
			if !seen[ch] {
				seen[ch] = true
				queue = append(queue, ch)
			}
		}
	}
	return order
}

// String renders every concept with reduced labels.
func (l *Lattice) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lattice: %d concepts (top=%d, bottom=%d)\n", len(l.concepts), l.top, l.bottom)
	for _, c := range l.concepts {
		fmt.Fprintf(&b, "  c%d: extent=%s intent=%s parents=%v\n",
			c.ID, l.names(c.Extent, l.ctx.objNames), l.names(c.Intent, l.ctx.attrNames), l.parents[c.ID])
	}
	return b.String()
}

func (l *Lattice) names(s *bitset.Set, names []string) string {
	parts := []string{}
	s.Range(func(i int) bool {
		parts = append(parts, names[i])
		return true
	})
	return "{" + strings.Join(parts, ", ") + "}"
}
