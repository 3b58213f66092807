package concept

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// snapshotBytes serializes the lattice; byte equality of snapshots is the
// pinned notion of "identical" for the Godin determinism properties (it
// covers the context, every concept's sets in ID order, and all covers).
func snapshotBytes(t testing.TB, l *Lattice) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPropParallelGodinDeterministic pins the pruned Godin insertion step
// to the full-scan oracle: a build at any worker count (the bound reaches
// the cover-linking pool) is byte-identical (WriteSnapshot) to buildLegacy,
// over randomized corpora spanning the one-word fast path (≤64 attributes)
// and the general path.
func TestPropParallelGodinDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for iter := 0; iter < iters; iter++ {
		var c *Context
		switch iter % 3 {
		case 0:
			c = randomContext(rng, 40, 24)
		case 1:
			c = denseRandomContext(rng, 10+rng.Intn(50), 1+rng.Intn(30))
		default:
			// Past one word: exercises the general (Set-walking) scan.
			c = randomContext(rng, 30, 100)
		}
		want := legacySnapshot(t, c)
		for _, workers := range []int{1, 2, 8} {
			l, err := BuildCtx(context.Background(), c, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotBytes(t, l); !bytes.Equal(got, want) {
				t.Fatalf("iter %d: pruned build (workers=%d) snapshot differs from legacy serial build on\n%s",
					iter, workers, c)
			}
			checkLatticeInvariants(t, l)
		}
	}
}

// TestParallelGodinDeterministicBigCorpus is the same property on a
// mid-size slice of the >10⁴-class xtrace fixture — real duplicate-row
// replay territory (thousands of trace classes, few distinct rows).
func TestParallelGodinDeterministicBigCorpus(t *testing.T) {
	set := bigCorpusClasses(4000)
	fc, err := TraceContext(set.Representatives(), bigCorpusRef())
	if err != nil {
		t.Fatal(err)
	}
	want := legacySnapshot(t, fc)
	for _, workers := range []int{1, 2, 8} {
		l, err := BuildCtx(context.Background(), fc, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if got := snapshotBytes(t, l); !bytes.Equal(got, want) {
			t.Fatalf("pruned big-corpus build (workers=%d) snapshot differs from legacy serial build", workers)
		}
	}
}

// TestGodinPrunedMatchesLegacy is the pruned-vs-unpruned differential over
// incremental add sequences: a pruned lattice built over a prefix context
// receives the remaining rows through AddObjectCtx one at a time, and after
// every add it is byte-identical to the full-scan build of the grown
// context, query tables included. This exercises the replay cache, the
// lazily built inverted index, and the incremental updateTablesAfterAdd
// against the legacy loop.
func TestGodinPrunedMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(99173))
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for iter := 0; iter < iters; iter++ {
		full := randomContext(rng, 30, 20)
		base := 1 + rng.Intn(full.NumObjects())
		pruned, err := BuildCtx(context.Background(), contextPrefix(full, base), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for o := base; o < full.NumObjects(); o++ {
			if err := pruned.AddObjectCtx(context.Background(), "", full.Attributes(o)); err != nil {
				t.Fatal(err)
			}
			legacy := buildLegacy(pruned.Context().clone())
			if !bytes.Equal(snapshotBytes(t, pruned), snapshotBytes(t, legacy)) {
				t.Fatalf("iter %d: pruned lattice diverges from the legacy build after adding object %d of\n%s",
					iter, o, full)
			}
			requireByteIdentical(t, pruned, legacy, fmt.Sprintf("iter %d: add object %d", iter, o))
		}
	}
}

// BenchmarkParallel publishes the worker-scaling curves of WithWorkers: a
// whole Build (serial Godin insertion, then the cover-linking pool), the
// cover-linking pass alone, and the incremental add, which the bound does
// not reach and so is the flat control. Worker counts are sub-benchmark
// names (w1..w8) so the bench pipeline keys them stably; on a single-core
// box the curves are flat and only the multi-core lane shows speedup.
func BenchmarkParallel(b *testing.B) {
	fc, err := bigCorpusContext()
	if err != nil {
		b.Fatal(err)
	}
	workerCounts := []int{1, 2, 4, 8}
	b.Run("Build", func(b *testing.B) {
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					l, err := BuildCtx(context.Background(), fc, WithWorkers(w))
					if err != nil {
						b.Fatal(err)
					}
					if l.Len() == 0 {
						b.Fatal("empty lattice")
					}
				}
			})
		}
	})
	b.Run("LinkCovers", func(b *testing.B) {
		l := Build(fc)
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := l.linkCovers(context.Background(), w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
	b.Run("AddTrace", func(b *testing.B) {
		ref := bigCorpusRef()
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
				l, err := BuildCtx(context.Background(), fc.clone(), WithWorkers(w))
				if err != nil {
					b.Fatal(err)
				}
				fresh := benchFreshTraces(b)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i > 0 && i%256 == 0 {
						b.StopTimer()
						l, err = BuildCtx(context.Background(), fc.clone(), WithWorkers(w))
						if err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					tr := fresh[i%len(fresh)]
					tr.ID = fmt.Sprintf("bench-par-add-%d-%d", w, i)
					if err := l.AddTraceCtx(context.Background(), tr, ref); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkSortInts pins the insertionSortInts cutoff: small cover lists
// must stay on the branch-cheap insertion sort (no regression from the
// slices.Sort switch), large layers get the O(n log n) path.
func BenchmarkSortInts(b *testing.B) {
	bench := func(n int) func(*testing.B) {
		return func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			src := make([]int, n)
			for i := range src {
				src[i] = rng.Intn(1 << 20)
			}
			buf := make([]int, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				insertionSortInts(buf)
			}
		}
	}
	b.Run("Small8", bench(8))
	b.Run("Small32", bench(32))
	b.Run("Large1024", bench(1024))
}
