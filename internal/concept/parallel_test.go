package concept

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
)

// denseRandomContext builds a context dense enough to yield well over
// 2*linkChunk concepts, so worker counts > 1 actually enter the parallel
// pool instead of the small-lattice serial path.
func denseRandomContext(rng *rand.Rand, objs, attrs int) *Context {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = prefix
		}
		return out
	}
	c := NewContext(names("o", objs), names("a", attrs))
	for o := 0; o < objs; o++ {
		for a := 0; a < attrs; a++ {
			if rng.Intn(3) == 0 {
				c.Relate(o, a)
			}
		}
	}
	return c
}

// TestPropParallelLinkCoversDeterministic pins the layer-parallel cover
// scan to the serial one: for any worker count the resulting lattice —
// concept order, parents, children, top, bottom, query tables — must be
// identical. Run under -race this also checks the pool's only shared
// writes (disjoint out slots) are clean.
func TestPropParallelLinkCoversDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 8; iter++ {
		c := denseRandomContext(rng, 40+rng.Intn(20), 14)
		serial, err := BuildCtx(context.Background(), c, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if serial.Len() < 2*linkChunk {
			t.Fatalf("iter %d: fixture too small to exercise the pool (%d concepts)", iter, serial.Len())
		}
		for _, workers := range []int{2, 8} {
			par, err := BuildCtx(context.Background(), c, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if par.Len() != serial.Len() {
				t.Fatalf("iter %d workers=%d: %d concepts vs %d serial", iter, workers, par.Len(), serial.Len())
			}
			for id, sc := range serial.concepts {
				pc := par.concepts[id]
				if !sc.Extent.Equal(pc.Extent) || !sc.Intent.Equal(pc.Intent) {
					t.Fatalf("iter %d workers=%d: concept %d differs", iter, workers, id)
				}
			}
			if !reflect.DeepEqual(par.parents, serial.parents) {
				t.Fatalf("iter %d workers=%d: parents differ", iter, workers)
			}
			if !reflect.DeepEqual(par.children, serial.children) {
				t.Fatalf("iter %d workers=%d: children differ", iter, workers)
			}
			if par.top != serial.top || par.bottom != serial.bottom {
				t.Fatalf("iter %d workers=%d: top/bottom %d/%d vs %d/%d",
					iter, workers, par.top, par.bottom, serial.top, serial.bottom)
			}
			if !reflect.DeepEqual(par.objConcept, serial.objConcept) ||
				!reflect.DeepEqual(par.attrConcept, serial.attrConcept) {
				t.Fatalf("iter %d workers=%d: query tables differ", iter, workers)
			}
		}
	}
}

// TestParallelLinkCoversMatchesOracle cross-checks the parallel scan
// against the independent all-pairs oracle, not just against the serial
// twin.
func TestParallelLinkCoversMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 5; iter++ {
		c := denseRandomContext(rng, 45, 13)
		l, err := BuildCtx(context.Background(), c, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		parents, children := linkCoversAllPairs(l)
		for i := range parents {
			insertionSortInts(parents[i])
			insertionSortInts(children[i])
		}
		for id := range l.concepts {
			if !equalInts(l.Parents(id), parents[id]) {
				t.Fatalf("iter %d: parents of %d: parallel %v, all-pairs %v", iter, id, l.Parents(id), parents[id])
			}
			if !equalInts(l.Children(id), children[id]) {
				t.Fatalf("iter %d: children of %d: parallel %v, all-pairs %v", iter, id, l.Children(id), children[id])
			}
		}
	}
}

// TestBuildCancelledDuringLinkCovers exercises the pool's cancellation
// path: a context cancelled before the build reaches cover linking must
// surface ctx.Err() from both the serial and the parallel scan.
func TestBuildCancelledDuringLinkCovers(t *testing.T) {
	c := denseRandomContext(rand.New(rand.NewSource(5)), 40, 12)
	l := Build(c)
	cc, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if err := l.linkCovers(cc, workers); err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	// Relink uncancelled so the lattice is left consistent.
	if err := l.linkCovers(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	checkLatticeInvariants(t, l)
}
