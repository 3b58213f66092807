package concept_test

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/trace"
)

// Example builds a small context by hand and derives concepts from it.
func Example() {
	ctx := concept.NewContext(
		[]string{"cat", "dog", "dolphin"},
		[]string{"fourlegged", "haircovered", "marine"},
	)
	ctx.Relate(0, 0) // cat: fourlegged
	ctx.Relate(0, 1) // cat: haircovered
	ctx.Relate(1, 0) // dog: fourlegged
	ctx.Relate(1, 1) // dog: haircovered
	ctx.Relate(2, 2) // dolphin: marine

	// σ({cat, dog}) is the set of attributes they share.
	shared := ctx.Sigma(bitset.FromSlice([]int{0, 1}))
	fmt.Println("similarity of {cat, dog}:", shared.Len())

	lattice := concept.Build(ctx)
	fmt.Println("concepts:", lattice.Len())
	top := lattice.Concept(lattice.Top())
	fmt.Println("top extent size:", top.Extent.Len())
	// Output:
	// similarity of {cat, dog}: 2
	// concepts: 4
	// top extent size: 3
}

// ExampleBuildFromTraces clusters traces by the FA transitions they
// execute — the construction of Section 3.2.
func ExampleBuildFromTraces() {
	traces := []trace.Trace{
		trace.ParseEvents("v1", "X = popen()", "pclose(X)"),
		trace.ParseEvents("v2", "X = popen()", "fread(X)", "pclose(X)"),
		trace.ParseEvents("v3", "X = fopen()"),
	}
	ref := fa.FromTraces(trace.NewSet(traces...).Alphabet())
	lattice, err := concept.BuildFromTraces(traces, ref)
	if err != nil {
		panic(err)
	}
	// v1 and v2 share the popen and pclose transitions, so some concept
	// holds exactly those two traces.
	id, _ := lattice.Join(lattice.ObjectConcept(0), lattice.ObjectConcept(1))
	fmt.Println("popen concept extent:", lattice.Concept(id).Extent)
	// Output:
	// popen concept extent: {0, 1}
}
