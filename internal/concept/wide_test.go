package concept

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// ptaWideClasses and ptaWideTail size the prefix-tree fixture: the first
// ptaWideClasses trace classes of the big-corpus model, of which the last
// ptaWideTail are appended one at a time after the build.
const (
	ptaWideClasses = 340
	ptaWideTail    = 16
)

// ptaWideFixture learns the prefix-tree acceptor of the first n classes of
// one big-corpus draw — the learner's fallback reference — and returns it
// with the class representatives. Its context has one attribute per
// prefix-tree edge (thousands) while each row is one root-to-leaf path
// (tens of bits): the wide, sparse shape of the prefix-tree reference.
func ptaWideFixture(tb testing.TB, seed int64, n int) (*fa.FA, []trace.Trace) {
	tb.Helper()
	gen := xtrace.Generator{Model: bigCorpusModel(), Seed: seed}
	drawn, _ := gen.ScenarioSet(2000)
	if drawn.NumClasses() < n {
		tb.Fatalf("%d draws gave %d classes, want %d", 2000, drawn.NumClasses(), n)
	}
	reps := make([]trace.Trace, n)
	for i, c := range drawn.Classes()[:n] {
		reps[i] = c.Rep
	}
	res, err := learn.PTA("pta-wide", reps)
	if err != nil {
		tb.Fatal(err)
	}
	return res.FA, reps
}

// benchWide is the wide-universe lane of BenchmarkIncremental: Build is a
// full build over the prefix-tree context of all but the tail classes, and
// AddTrace appends the tail one class at a time (the lattice is rebuilt,
// untimed, once the tail is used up).
func benchWide(b *testing.B) {
	ref, reps := ptaWideFixture(b, 1001, ptaWideClasses)
	head := len(reps) - ptaWideTail
	fc, err := TraceContext(reps[:head], ref)
	if err != nil {
		b.Fatal(err)
	}
	if fc.NumAttributes() <= wordBitsPerSet {
		b.Fatalf("prefix-tree context has %d attributes, want a multi-word universe", fc.NumAttributes())
	}
	b.Run("Build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l, err := BuildCtx(context.Background(), fc, WithWorkers(1))
			if err != nil {
				b.Fatal(err)
			}
			if l.Len() == 0 {
				b.Fatal("empty lattice")
			}
		}
	})
	b.Run("AddTrace", func(b *testing.B) {
		var l *Lattice
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % ptaWideTail
			if k == 0 {
				b.StopTimer()
				l, err = BuildCtx(context.Background(), fc.clone(), WithWorkers(1))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			tr := reps[head+k]
			tr.ID = fmt.Sprintf("bench-wide-add-%d", i)
			if err := l.AddTraceCtx(context.Background(), tr, ref); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// wideRandomContext draws a context over 70–300 attributes — past the
// one-word fast paths — whose rows hold 1–90 attributes, so rows and
// intents fall on both sides of the 64-attribute projection cutoff. About
// a quarter of the rows repeat an earlier one.
func wideRandomContext(rng *rand.Rand, maxObjs int) *Context {
	no := 1 + rng.Intn(maxObjs)
	na := 70 + rng.Intn(231)
	c := NewContext(make([]string, no), make([]string, na))
	for o := 0; o < no; o++ {
		if o > 0 && rng.Intn(4) == 0 {
			c.Attributes(rng.Intn(o)).Range(func(a int) bool {
				c.Relate(o, a)
				return true
			})
			continue
		}
		k := 1 + rng.Intn(min(90, na))
		for _, a := range rng.Perm(na)[:k] {
			c.Relate(o, a)
		}
	}
	return c
}

// prefixTreeContext draws the shape of a prefix-tree reference: the
// attributes are the edges of a random tree of long chains, and each row is
// the edge set of one root-to-leaf path (leaves drawn with repetition, so
// rows repeat). Deep leaves give rows past 64 attributes.
func prefixTreeContext(rng *rand.Rand, maxObjs int) *Context {
	edges := 80 + rng.Intn(220)
	parent := make([]int, edges+1) // node i > 0 hangs off parent[i] by edge i-1
	isLeaf := make([]bool, edges+1)
	for i := 1; i <= edges; i++ {
		if rng.Intn(12) == 0 {
			parent[i] = rng.Intn(i)
		} else {
			parent[i] = i - 1
		}
		isLeaf[i] = true
		isLeaf[parent[i]] = false
	}
	var leaves []int
	for i, leaf := range isLeaf {
		if leaf {
			leaves = append(leaves, i)
		}
	}
	no := 1 + rng.Intn(maxObjs)
	c := NewContext(make([]string, no), make([]string, edges))
	for o := 0; o < no; o++ {
		for v := leaves[rng.Intn(len(leaves))]; v != 0; v = parent[v] {
			c.Relate(o, v-1)
		}
	}
	return c
}

// wideContexts is the fixture of the wide-universe differential tests.
func wideContexts(rng *rand.Rand, n int) []*Context {
	out := make([]*Context, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = wideRandomContext(rng, 24)
		} else {
			out[i] = prefixTreeContext(rng, 80)
		}
	}
	return out
}

// TestWideBuildMatchesLegacy pins the wide-universe kernels — the
// row-projected Godin scan and the intent-projected cover kernel — to the
// unpruned full-scan build, byte for byte, at every worker count, and the
// covers to the all-pairs oracle. Rows past 64 attributes take the serial
// Set-walking scan.
func TestWideBuildMatchesLegacy(t *testing.T) {
	iters := 24
	if testing.Short() {
		iters = 8
	}
	for iter, c := range wideContexts(rand.New(rand.NewSource(20261017)), iters) {
		legacy := buildLegacy(c)
		want := snapshotBytes(t, legacy)
		for _, workers := range []int{1, 2, 8} {
			l, err := BuildCtx(context.Background(), c, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotBytes(t, l); !bytes.Equal(got, want) {
				t.Fatalf("iter %d: pruned build (workers=%d) differs from the legacy build on\n%s", iter, workers, c)
			}
		}
		checkLatticeInvariants(t, legacy)
		parents, children := linkCoversAllPairs(legacy)
		for id := range legacy.concepts {
			insertionSortInts(parents[id])
			insertionSortInts(children[id])
			if !equalInts(legacy.Parents(id), parents[id]) || !equalInts(legacy.Children(id), children[id]) {
				t.Fatalf("iter %d: covers of %d: parents %v children %v, all-pairs %v %v",
					iter, id, legacy.Parents(id), legacy.Children(id), parents[id], children[id])
			}
		}
	}
}

// TestWideIncrementalMatchesRebuild grows wide lattices one object at a
// time and pins every add to a fresh build, serial and parallel. It covers the projected Godin
// scan on incremental inserts, the cover repair (new concepts through the
// linkCovers routine, old ones from their old parents) and the μa delta.
func TestWideIncrementalMatchesRebuild(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for iter, full := range wideContexts(rand.New(rand.NewSource(1017)), iters) {
		for _, workers := range []int{1, 8} {
			rng := rand.New(rand.NewSource(int64(iter)))
			base := rng.Intn(full.NumObjects())
			l, err := BuildCtx(context.Background(), contextPrefix(full, base), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			for o := base; o < full.NumObjects(); o++ {
				msg := fmt.Sprintf("iter %d workers %d: add object %d", iter, workers, o)
				if err := l.AddObjectCtx(context.Background(), "", full.Attributes(o)); err != nil {
					t.Fatal(err)
				}
				rebuilt, err := BuildCtx(context.Background(), l.Context().clone(), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				requireByteIdentical(t, l, rebuilt, msg)
				checkLatticeInvariants(t, l)
			}
		}
	}
}

// TestWidePrefixTreeAddsMatchRebuild is the same pin on a learned
// prefix-tree reference: the benchmark fixture's corpus, smaller, with its
// tail appended through AddTraceCtx.
func TestWidePrefixTreeAddsMatchRebuild(t *testing.T) {
	ref, reps := ptaWideFixture(t, 1001, 80)
	head := len(reps) - ptaWideTail
	for _, workers := range []int{1, 8} {
		fc, err := TraceContext(reps[:head], ref)
		if err != nil {
			t.Fatal(err)
		}
		l, err := BuildCtx(context.Background(), fc, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range reps[head:] {
			if err := l.AddTraceCtx(context.Background(), tr, ref); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := BuildCtx(context.Background(), l.Context().clone(), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			requireByteIdentical(t, l, rebuilt, fmt.Sprintf("workers %d: add %s", workers, tr.ID))
		}
		if !bytes.Equal(snapshotBytes(t, l), legacySnapshot(t, l.Context())) {
			t.Fatalf("workers %d: lattice after adds differs from the legacy build", workers)
		}
	}
}

// contextPrefix returns a fresh context over the first n objects of c.
func contextPrefix(c *Context, n int) *Context {
	out := NewContext(make([]string, n), make([]string, c.NumAttributes()))
	for o := 0; o < n; o++ {
		c.Attributes(o).Range(func(a int) bool {
			out.Relate(o, a)
			return true
		})
	}
	return out
}

// TestProjectedKernelsCover makes sure the fixtures reach the paths they
// are meant to pin: some rows and intents at most 64 attributes wide over a
// multi-word universe (the projected kernels) and some wider (the word
// sweeps they fall back to).
func TestProjectedKernelsCover(t *testing.T) {
	var narrowRow, wideRow, narrowIntent, wideIntent bool
	for _, c := range wideContexts(rand.New(rand.NewSource(20261017)), 24) {
		for o := 0; o < c.NumObjects(); o++ {
			k := c.Attributes(o).Len()
			narrowRow = narrowRow || k <= wordBitsPerSet
			wideRow = wideRow || k > wordBitsPerSet
		}
		for _, cn := range Build(c).Concepts() {
			k := cn.Intent.Len()
			narrowIntent = narrowIntent || k <= wordBitsPerSet
			wideIntent = wideIntent || (k > wordBitsPerSet && k < c.NumAttributes())
		}
	}
	if !narrowRow || !wideRow || !narrowIntent || !wideIntent {
		t.Fatalf("fixture misses a path: narrow/wide rows %v/%v, narrow/wide intents %v/%v",
			narrowRow, wideRow, narrowIntent, wideIntent)
	}
}
