package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/exp"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// BenchmarkRead parses the trace text of every Table 2 specification's
// workload (seed 1, exp.DefaultScale), one Read per specification, as the
// paper pipeline does. Bytes per op is the whole corpus.
func BenchmarkRead(b *testing.B) {
	var texts [][]byte
	size := 0
	for _, spec := range specs.All() {
		set, _ := xtrace.Generator{Model: spec.Model, Seed: 1}.ScenarioSet(exp.DefaultScale(spec.Name))
		var buf bytes.Buffer
		if err := trace.Write(&buf, set); err != nil {
			b.Fatal(err)
		}
		texts = append(texts, buf.Bytes())
		size += buf.Len()
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, text := range texts {
			if _, err := trace.Read(bytes.NewReader(text)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
