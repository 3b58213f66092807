package learn_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/exp"
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/specs"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// table2Rungs is the reference ladder of exp.Prepare: the mined FA, the
// finer learner, and the prefix-tree acceptor.
var table2Rungs = []struct {
	name  string
	learn func(name string, traces []trace.Trace) (*learn.Result, error)
}{
	{"mined", learn.DefaultLearner.Learn},
	{"finer", learn.Learner{K: 3, S: 0.95, Agreement: learn.And}.Learn},
	{"pta", learn.PTA},
}

// writeResult renders a learned automaton with its training frequencies:
// the fa.Write text, then one "trans" line per transition count and one
// "accept" line per accepting state's count, in state order.
func writeResult(buf *bytes.Buffer, r *learn.Result) error {
	if err := fa.Write(buf, r.FA); err != nil {
		return err
	}
	for i, c := range r.TransCount {
		fmt.Fprintf(buf, "trans %d %d\n", i, c)
	}
	states := make([]int, 0, len(r.AcceptCount))
	for s := range r.AcceptCount {
		states = append(states, int(s))
	}
	sort.Ints(states)
	for _, s := range states {
		fmt.Fprintf(buf, "accept %d %d\n", s, r.AcceptCount[fa.State(s)])
	}
	return nil
}

// TestTable2LearnedGolden pins every learner rung on every Table 2
// specification's workload (seed 1, exp.DefaultScale) byte for byte: the
// automaton text, its transition counts and its acceptance counts. Any
// change to the sk-strings merge order, the PTA construction or the
// freezing of states shows here. Regenerate with -update only for an
// intended change of the learned automata.
func TestTable2LearnedGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, spec := range specs.All() {
		gen := xtrace.Generator{Model: spec.Model, Seed: 1}
		set, _ := gen.ScenarioSet(exp.DefaultScale(spec.Name))
		var all []trace.Trace
		for _, c := range set.Classes() {
			for _, id := range c.IDs {
				t := c.Rep
				t.ID = id
				all = append(all, t)
			}
		}
		for _, rung := range table2Rungs {
			r, err := rung.learn(spec.Name+"-"+rung.name, all)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.Name, rung.name, err)
			}
			fmt.Fprintf(&buf, "# %s %s: %d traces\n", spec.Name, rung.name, len(all))
			if err := writeResult(&buf, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join("testdata", "table2_learned.golden")
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
	if !bytes.Equal(buf.Bytes(), want) {
		got := buf.Bytes()
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		line := bytes.Count(want[:i], []byte("\n")) + 1
		t.Fatalf("learned automata differ from %s at line %d", path, line)
	}
}
