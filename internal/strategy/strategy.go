// Package strategy implements the labeling strategies of Section 4.2 and
// their cost model, used to regenerate Table 3.
//
// A strategy drives a Cable session from an all-unlabeled state to a given
// reference labeling. Its cost counts Cable operations: inspecting a
// concept and labeling traces. Inspections are counted so that an "optimal"
// strategy cannot peek at every concept for free; a strategy may not label
// a concept it has not just inspected.
//
// All strategies here follow the discipline of the paper's automatic
// strategies: when visiting a concept, they label its unlabeled traces iff
// those traces all carry the same reference label (a strategy never
// mislabels a trace and fixes it later). On lattices that are not
// well-formed for the labeling (internal/wellformed), no such strategy can
// finish, and the strategies report failure.
package strategy

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/cable"
	"repro/internal/concept"
)

// Cost tallies Cable operations.
type Cost struct {
	// Inspections counts concept visits.
	Inspections int
	// Labelings counts Label-traces commands.
	Labelings int
}

// Total returns the number of user decisions: inspections plus labelings.
func (c Cost) Total() int { return c.Inspections + c.Labelings }

func (c Cost) String() string {
	return fmt.Sprintf("%d ops (%d inspections + %d labelings)", c.Total(), c.Inspections, c.Labelings)
}

// run tracks a strategy execution over a lattice toward a reference
// labeling.
type run struct {
	l       *concept.Lattice
	ref     []cable.Label
	labeled *bitset.Set
	cost    Cost
}

func newRun(l *concept.Lattice, ref []cable.Label) (*run, error) {
	if len(ref) != l.Context().NumObjects() {
		return nil, fmt.Errorf("strategy: %d reference labels for %d objects",
			len(ref), l.Context().NumObjects())
	}
	for i, lb := range ref {
		if lb == cable.Unlabeled {
			return nil, fmt.Errorf("strategy: reference labeling leaves object %d unlabeled", i)
		}
	}
	return &run{l: l, ref: ref, labeled: bitset.New(len(ref))}, nil
}

// unlabeledIn returns the concept's objects not yet labeled.
func (r *run) unlabeledIn(id int) *bitset.Set {
	return bitset.Difference(r.l.Concept(id).Extent, r.labeled)
}

// fullyLabeled reports whether the concept has no unlabeled traces.
func (r *run) fullyLabeled(id int) bool {
	return r.l.Concept(id).Extent.SubsetOf(r.labeled)
}

// uniformLabel returns the common reference label of the objects, or ok =
// false if they disagree or the set is empty.
func (r *run) uniformLabel(x *bitset.Set) (cable.Label, bool) {
	label := cable.Unlabeled
	ok := true
	x.Range(func(o int) bool {
		if label == cable.Unlabeled {
			label = r.ref[o]
			return true
		}
		if r.ref[o] != label {
			ok = false
			return false
		}
		return true
	})
	return label, ok && label != cable.Unlabeled
}

// visit inspects a concept (cost) and labels its unlabeled traces if they
// are uniform (cost). It reports whether a labeling happened.
func (r *run) visit(id int) bool {
	r.cost.Inspections++
	un := r.unlabeledIn(id)
	if _, ok := r.uniformLabel(un); !ok {
		return false
	}
	r.cost.Labelings++
	r.labeled.UnionWith(un)
	return true
}

func (r *run) done() bool { return r.labeled.Len() == len(r.ref) }

// TopDown implements the Top-down strategy: repeated breadth-first
// traversals from the top concept, visiting concepts that still have
// unlabeled traces and labeling whenever the remainder is uniform. It
// fails (ok = false) if a full traversal makes no progress, which happens
// exactly when the lattice is not well-formed for the labeling.
func TopDown(l *concept.Lattice, ref []cable.Label) (Cost, bool) {
	r, err := newRun(l, ref)
	if err != nil {
		return Cost{}, false
	}
	order := l.TopDownOrder()
	for !r.done() {
		progress := false
		for _, id := range order {
			if r.done() {
				break
			}
			if r.fullyLabeled(id) {
				continue
			}
			if r.visit(id) {
				progress = true
			}
		}
		if !progress {
			return r.cost, false
		}
	}
	return r.cost, true
}

// BottomUp implements the Bottom-up strategy: repeatedly visit a concept
// that is not fully labeled but all of whose children are, and label its
// remainder. On a well-formed lattice the remainder is always uniform. On
// the loop-free specifications of the evaluation this strategy degenerates
// to Baseline: each class of identical traces sits in its own low concept.
func BottomUp(l *concept.Lattice, ref []cable.Label) (Cost, bool) {
	r, err := newRun(l, ref)
	if err != nil {
		return Cost{}, false
	}
	for !r.done() {
		ready := -1
		for _, c := range l.Concepts() {
			if r.fullyLabeled(c.ID) {
				continue
			}
			allChildrenDone := true
			for _, ch := range l.Children(c.ID) {
				if !r.fullyLabeled(ch) {
					allChildrenDone = false
					break
				}
			}
			if allChildrenDone {
				ready = c.ID
				break
			}
		}
		if ready < 0 {
			return r.cost, false
		}
		if !r.visit(ready) {
			// Mixed remainder: the lattice is not well-formed.
			return r.cost, false
		}
	}
	return r.cost, true
}

// Random implements the Random strategy: visit uniformly-random concepts
// that still have unlabeled traces, labeling when possible, until done.
// maxOps bounds the walk so non-well-formed lattices terminate (0 means
// 1000 × the number of concepts).
func Random(l *concept.Lattice, ref []cable.Label, rng *rand.Rand, maxOps int) (Cost, bool) {
	r, err := newRun(l, ref)
	if err != nil {
		return Cost{}, false
	}
	if maxOps <= 0 {
		maxOps = 1000 * l.Len()
	}
	for !r.done() {
		var candidates []int
		for _, c := range l.Concepts() {
			if !r.fullyLabeled(c.ID) {
				candidates = append(candidates, c.ID)
			}
		}
		if len(candidates) == 0 {
			break
		}
		r.visit(candidates[rng.Intn(len(candidates))])
		if r.cost.Total() > maxOps {
			return r.cost, false
		}
	}
	return r.cost, true
}

// RandomMean runs Random trials times (the paper uses 1024) and returns
// the arithmetic mean total cost over the trials. Trials run in parallel,
// each seeded deterministically from the base seed, so the result is
// reproducible regardless of scheduling.
func RandomMean(l *concept.Lattice, ref []cable.Label, seed int64, trials int) (float64, bool) {
	if trials <= 0 {
		return 0, false
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > trials {
		workers = trials
	}
	costs := make([]int, trials)
	failed := make([]bool, trials)
	var wg sync.WaitGroup
	next := int64(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= trials {
					return
				}
				rng := rand.New(rand.NewSource(seed + int64(i)))
				c, ok := Random(l, ref, rng, 0)
				if !ok {
					failed[i] = true
					return
				}
				costs[i] = c.Total()
			}
		}()
	}
	wg.Wait()
	sum := 0
	for i := 0; i < trials; i++ {
		if failed[i] {
			return 0, false
		}
		sum += costs[i]
	}
	return float64(sum) / float64(trials), true
}

// Baseline implements the non-Cable baseline: inspect and label each class
// of identical traces separately, costing two operations per class (the
// objects of these lattices are already one-per-class).
func Baseline(l *concept.Lattice) Cost {
	n := l.Context().NumObjects()
	return Cost{Inspections: n, Labelings: n}
}

// Expert simulates the expert user of Section 5.3: a mostly top-down
// navigator who knows which concepts are worth labeling (directed by
// "interesting" transitions). Each step greedily labels the concept
// covering the most unlabeled traces among those whose remainders are
// uniform; a final verification inspection of the good traces at the top
// concept (Step 2b) is charged at the end. It fails on lattices that are
// not well-formed.
func Expert(l *concept.Lattice, ref []cable.Label) (Cost, bool) {
	r, err := newRun(l, ref)
	if err != nil {
		return Cost{}, false
	}
	for !r.done() {
		best, bestCover := -1, 0
		for _, c := range l.Concepts() {
			un := r.unlabeledIn(c.ID)
			if un.Empty() {
				continue
			}
			if _, ok := r.uniformLabel(un); !ok {
				continue
			}
			if cover := un.Len(); cover > bestCover {
				best, bestCover = c.ID, cover
			}
		}
		if best < 0 {
			return r.cost, false
		}
		r.visit(best)
	}
	// Step 2b: check the labeling by viewing the FA of the good traces.
	r.cost.Inspections++
	return r.cost, true
}
