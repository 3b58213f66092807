package learn_test

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/learn"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// BenchmarkLearn runs the two sk-strings rungs of the Table 2 reference
// ladder over XtFree's workload (seed 1, exp.DefaultScale), the largest
// of the paper's specifications.
func BenchmarkLearn(b *testing.B) {
	spec, ok := specs.ByName("XtFree")
	if !ok {
		b.Fatal("no XtFree spec")
	}
	set, _ := xtrace.Generator{Model: spec.Model, Seed: 1}.ScenarioSet(exp.DefaultScale(spec.Name))
	var all []trace.Trace
	for _, c := range set.Classes() {
		for range c.IDs {
			all = append(all, c.Rep)
		}
	}
	for _, bc := range []struct {
		name string
		l    learn.Learner
	}{
		{"Default", learn.DefaultLearner},
		{"Finer", learn.Learner{K: 3, S: 0.95, Agreement: learn.And}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.l.Learn("XtFree", all); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
