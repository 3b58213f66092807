package concept

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// requireByteIdentical asserts that got's WriteSnapshot bytes equal
// want's and that every table of got matches want exactly — concept IDs,
// extents, intents, cover edges (including the nil/empty distinction
// DeepEqual sees), top/bottom, and the query tables. This is the
// "differentially pinned against full rebuild" contract of incremental
// adds.
func requireByteIdentical(t *testing.T, got, want *Lattice, msg string) {
	t.Helper()
	if !bytes.Equal(snapshotBytes(t, got), snapshotBytes(t, want)) {
		t.Fatalf("%s: snapshot differs from rebuild", msg)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d concepts, rebuild has %d", msg, got.Len(), want.Len())
	}
	for i := range want.concepts {
		g, w := got.concepts[i], want.concepts[i]
		if g.ID != w.ID || !g.Extent.Equal(w.Extent) || !g.Intent.Equal(w.Intent) {
			t.Fatalf("%s: concept %d differs from rebuild\n got: extent=%s intent=%s\nwant: extent=%s intent=%s",
				msg, i, g.Extent, g.Intent, w.Extent, w.Intent)
		}
	}
	if !reflect.DeepEqual(got.parents, want.parents) {
		t.Fatalf("%s: parents differ from rebuild\n got: %v\nwant: %v", msg, got.parents, want.parents)
	}
	if !reflect.DeepEqual(got.children, want.children) {
		t.Fatalf("%s: children differ from rebuild\n got: %v\nwant: %v", msg, got.children, want.children)
	}
	if got.top != want.top || got.bottom != want.bottom {
		t.Fatalf("%s: top/bottom %d/%d, rebuild %d/%d", msg, got.top, got.bottom, want.top, want.bottom)
	}
	if !reflect.DeepEqual(got.objConcept, want.objConcept) {
		t.Fatalf("%s: objConcept differs from rebuild", msg)
	}
	if !reflect.DeepEqual(got.attrConcept, want.attrConcept) {
		t.Fatalf("%s: attrConcept differs from rebuild", msg)
	}
}

// TestIncrementalMatchesRebuildSmall drives dense random add sequences on
// small random contexts, pinning the lattice against a full rebuild after
// every single add. Small universes hit every path hard: duplicate rows,
// novel rows, new top concepts, and, every tenth iteration, adds to a
// context that starts with no objects.
func TestIncrementalMatchesRebuildSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for iter := 0; iter < 120; iter++ {
		c := randomContext(rng, 8, 6)
		if iter%10 == 0 {
			c = contextPrefix(c, 0)
		}
		l := Build(c)
		for step := 0; step < 12; step++ {
			na := l.Context().NumAttributes()
			row := bitset.New(na)
			if n := l.Context().NumObjects(); n > 0 && rng.Intn(3) == 0 {
				row = l.Context().Attributes(rng.Intn(n)).Clone()
			} else {
				for a := 0; a < na; a++ {
					if rng.Intn(3) == 0 {
						row.Add(a)
					}
				}
			}
			msg := fmt.Sprintf("iter %d step %d: add %s", iter, step, row)
			if err := l.AddObjectCtx(context.Background(), fmt.Sprintf("x%d.%d", iter, step), row); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := BuildCtx(context.Background(), l.Context().clone(), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			requireByteIdentical(t, l, rebuilt, msg)
			checkLatticeInvariants(t, l)
		}
	}
}

// TestIncrementalMatchesRebuild is the production-scale pin: seven adds
// (fresh classes and duplicate rows) on the >10⁴-class xtrace corpus,
// compared against a full rebuild after every add, for both a serial and a
// parallel build configuration.
func TestIncrementalMatchesRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("big corpus incremental pin under -short")
	}
	ref := bigCorpusRef()
	fc, err := bigCorpusContext()
	if err != nil {
		t.Fatal(err)
	}
	corpus := bigCorpusClasses(60000).Representatives()
	gen := xtrace.Generator{Model: bigCorpusModel(), Seed: 777}
	freshSet, _ := gen.ScenarioSet(300)
	fresh := freshSet.Representatives()
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			l, err := BuildCtx(context.Background(), fc.clone(), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(1000 + workers)))
			pin := func(msg string) {
				t.Helper()
				rebuilt, err := BuildCtx(context.Background(), l.Context().clone(), WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				requireByteIdentical(t, l, rebuilt, msg)
				checkLatticeInvariants(t, l)
			}
			add := func(tr trace.Trace, msg string) {
				t.Helper()
				if err := l.AddTraceCtx(context.Background(), tr, ref); err != nil {
					t.Fatal(err)
				}
				pin(msg)
			}
			// Three adds: fresh classes from a different generator seed.
			var added []trace.Trace
			for i := 0; i < 3; i++ {
				tr := fresh[rng.Intn(len(fresh))]
				add(tr, fmt.Sprintf("add fresh class %q", tr.ID))
				added = append(added, tr)
			}
			// Duplicate-row adds: re-adding a corpus representative or a
			// class this test just added must spawn no concepts.
			for _, dup := range []trace.Trace{corpus[rng.Intn(len(corpus))], added[rng.Intn(len(added))]} {
				n := l.Len()
				add(dup, fmt.Sprintf("add duplicate-row class %q", dup.ID))
				if l.Len() != n {
					t.Fatalf("duplicate-row class %q spawned %d concepts", dup.ID, l.Len()-n)
				}
			}
			// Two more fresh classes on top of the duplicates.
			for i := 0; i < 2; i++ {
				tr := fresh[rng.Intn(len(fresh))]
				add(tr, fmt.Sprintf("add fresh class %q after duplicates", tr.ID))
			}
		})
	}
}

// TestCloneIndependent pins the copy-on-write contract: mutating a clone
// must leave the original lattice (and its context) untouched, and the
// clone must stay byte-identical to a rebuild.
func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for iter := 0; iter < 40; iter++ {
		c := randomContext(rng, 8, 6)
		orig := Build(c)
		before, err := BuildCtx(context.Background(), orig.Context().clone(), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		cl := orig.Clone()
		requireByteIdentical(t, cl, orig, "clone differs from original")
		row := bitset.New(orig.Context().NumAttributes())
		for a := 0; a < orig.Context().NumAttributes(); a++ {
			if rng.Intn(2) == 0 {
				row.Add(a)
			}
		}
		if err := cl.AddObjectCtx(context.Background(), "cloned-add", row); err != nil {
			t.Fatal(err)
		}
		if cl.Context().NumObjects() != orig.Context().NumObjects()+1 {
			t.Fatal("clone add did not extend the clone's context")
		}
		// The original must still match its own pre-clone rebuild.
		requireByteIdentical(t, orig, before, "original mutated through clone")
		rebuilt, err := BuildCtx(context.Background(), cl.Context().clone(), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		requireByteIdentical(t, cl, rebuilt, "mutated clone")
	}
}

// benchFreshTraces samples trace classes disjoint from the shared big
// corpus (different generator seed) for the incremental-add benchmarks.
func benchFreshTraces(b *testing.B) []trace.Trace {
	b.Helper()
	gen := xtrace.Generator{Model: bigCorpusModel(), Seed: 424242}
	freshSet, _ := gen.ScenarioSet(2000)
	return freshSet.Representatives()
}

// BenchmarkIncremental measures the incremental lanes against the full
// rebuild they replace at production corpus scale. AddTrace/Pruned is the
// streaming-ingestion hot path (the production pruned Godin step);
// AddTrace/Unpruned runs the full-scan oracle (buildLegacy,
// addObjectLegacy) as the baseline the pruning speedup is read against;
// Rebuild is the baseline the ≥10× acceptance ratio is read against. Those lanes all run a 9-attribute context; Wide/Build and
// Wide/AddTrace run the thousands-of-attributes prefix-tree context that
// the wide-universe kernels serve (benchWide).
func BenchmarkIncremental(b *testing.B) {
	fc, err := bigCorpusContext()
	if err != nil {
		b.Fatal(err)
	}
	ref := bigCorpusRef()
	fresh := benchFreshTraces(b)
	build := func(b *testing.B) *Lattice {
		l, err := BuildCtx(context.Background(), fc.clone(), WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		return l
	}
	// The unpruned lane's add mirrors AddTraceCtx: simulate, then insert.
	addTraceLegacy := func(l *Lattice, tr trace.Trace) error {
		executed, ok := ref.Executed(tr)
		if !ok {
			return fmt.Errorf("reference rejects %s", tr.Key())
		}
		l.addObjectLegacy(tr.ID, executed)
		return nil
	}
	addTrace := func(l *Lattice, tr trace.Trace) error {
		return l.AddTraceCtx(context.Background(), tr, ref)
	}
	addLane := func(build func(*testing.B) *Lattice, add func(*Lattice, trace.Trace) error) func(*testing.B) {
		return func(b *testing.B) {
			l := build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Reset the lattice (untimed) every 256 adds: without this,
				// large b.N measures adds against an ever-growing corpus
				// instead of the marginal add at baseline size.
				if i > 0 && i%256 == 0 {
					b.StopTimer()
					l = build(b)
					b.StartTimer()
				}
				tr := fresh[i%len(fresh)]
				tr.ID = fmt.Sprintf("bench-add-%d", i)
				if err := add(l, tr); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("AddTrace/Pruned", addLane(build, addTrace))
	b.Run("AddTrace/Unpruned", addLane(func(*testing.B) *Lattice { return buildLegacy(fc.clone()) }, addTraceLegacy))
	b.Run("Rebuild", func(b *testing.B) {
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
	b.Run("Wide", benchWide)
}
