package specs_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cable"
	"repro/internal/core"
	"repro/internal/fa"
	"repro/internal/specs"
	"repro/internal/xtrace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// stdioFixed replays the Section 2.1 walkthrough: the Figure 1 spec
// against the stdio workload (seed 21, 150 scenarios), every violation
// labeled by ground truth, then core.FixSpec.
func stdioFixed(t *testing.T) *fa.FA {
	t.Helper()
	gen := xtrace.Generator{Model: specs.Stdio().Model, Seed: 21}
	scenarios, truth := gen.ScenarioSet(150)
	session, _, err := core.DebugViolations(specs.FigureOneFA(), scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range session.Representatives() {
		label := cable.Bad
		if truth[tr.Key()] {
			label = cable.Good
		}
		if err := session.LabelTrace(i, label); err != nil {
			t.Fatal(err)
		}
	}
	fixed, err := core.FixSpec(specs.FigureOneFA(), session)
	if err != nil {
		t.Fatal(err)
	}
	return fixed
}

// TestCorpusFAGolden pins the derived automata byte for byte: the fa.Write
// text of FA, Buggy and ProgramFA for every spec of All() and Stdio(), and
// the repaired specification of the stdio walkthrough. State numbering and
// transition order feed the lattice attribute order, so any change to the
// derivation's determinization or minimization shows here. Regenerate with
// -update only for an intended change of the corpus automata.
func TestCorpusFAGolden(t *testing.T) {
	var buf bytes.Buffer
	write := func(label string, f *fa.FA) {
		fmt.Fprintf(&buf, "# %s\n", label)
		if err := fa.Write(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range append(specs.All(), specs.Stdio()) {
		prog, err := specs.ProgramFA(s.Name, s.Model)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		write(s.Name+" fa", s.FA)
		write(s.Name+" buggy", s.Buggy)
		write(s.Name+" program", prog)
	}
	write("Stdio walkthrough fixed", stdioFixed(t))

	path := filepath.Join("testdata", "corpus_fa.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		line := bytes.Count(want[:i], []byte("\n")) + 1
		t.Fatalf("corpus automata differ from %s at line %d", path, line)
	}
}
