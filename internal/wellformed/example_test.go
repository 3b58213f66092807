package wellformed_test

import (
	"fmt"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/fa/lang"
	"repro/internal/trace"
	"repro/internal/wellformed"
)

// Example demonstrates the Section 4.3 counterexample: a one-state foo*
// specification puts every trace in one concept, so a labeling that
// separates even from odd foo counts cannot be expressed with Cable's
// en-masse labeling.
func Example() {
	// The minimal DFA for foo()* has a single state with one self-loop —
	// the degenerate reference of the paper's example. (The raw Thompson
	// construction has more states, whose extra transitions would already
	// distinguish the traces.)
	ref, err := lang.Minimize(fa.MustCompile("foo", "foo()*"))
	if err != nil {
		panic(err)
	}
	traces := []trace.Trace{
		trace.ParseEvents("even", "foo()", "foo()"),
		trace.ParseEvents("odd", "foo()"),
	}
	lattice, err := concept.BuildFromTraces(traces, ref)
	if err != nil {
		panic(err)
	}
	labels := []cable.Label{cable.Good, cable.Bad}
	ok, bad := wellformed.Check(lattice, labels)
	fmt.Println("well-formed:", ok)
	fmt.Println("mixed concepts:", len(bad) > 0)

	// A uniform labeling is always expressible.
	ok, _ = wellformed.Check(lattice, []cable.Label{cable.Good, cable.Good})
	fmt.Println("uniform labeling well-formed:", ok)
	// Output:
	// well-formed: false
	// mixed concepts: true
	// uniform labeling well-formed: true
}
