package fa

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/event"
	"repro/internal/trace"
)

// buggyStdio builds the specification of Figure 1: fclose may close a file
// pointer regardless of whether fopen or popen produced it.
func buggyStdio() *FA {
	b := NewBuilder("stdio-buggy")
	s := b.States(3)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "X = fopen()", s[1])
	b.EdgeStr(s[0], "X = popen()", s[1])
	b.EdgeStr(s[1], "fread(X)", s[1])
	b.EdgeStr(s[1], "fwrite(X)", s[1])
	b.EdgeStr(s[1], "fclose(X)", s[2])
	return b.MustBuild()
}

// fixedStdio builds the corrected specification of Figure 6.
func fixedStdio() *FA {
	b := NewBuilder("stdio-fixed")
	s := b.States(4)
	b.Start(s[0])
	b.Accept(s[3])
	b.EdgeStr(s[0], "X = fopen()", s[1])
	b.EdgeStr(s[1], "fread(X)", s[1])
	b.EdgeStr(s[1], "fwrite(X)", s[1])
	b.EdgeStr(s[1], "fclose(X)", s[3])
	b.EdgeStr(s[0], "X = popen()", s[2])
	b.EdgeStr(s[2], "fread(X)", s[2])
	b.EdgeStr(s[2], "fwrite(X)", s[2])
	b.EdgeStr(s[2], "pclose(X)", s[3])
	return b.MustBuild()
}

func tr(events ...string) trace.Trace { return trace.ParseEvents("", events...) }

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder("bad")
	s := b.State()
	b.Start(s)
	b.Edge(s, event.MustParse("f()"), State(7))
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range transition target")
	}
	b2 := NewBuilder("nostart")
	b2.State()
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build accepted automaton without start state")
	}
}

func TestDuplicateEdgesDeduped(t *testing.T) {
	b := NewBuilder("dup")
	s := b.States(2)
	b.Start(s[0])
	b.Accept(s[1])
	b.EdgeStr(s[0], "f()", s[1])
	b.EdgeStr(s[0], "f()", s[1])
	f := b.MustBuild()
	if f.NumTransitions() != 1 {
		t.Fatalf("NumTransitions = %d, want 1", f.NumTransitions())
	}
}

func TestAccepts(t *testing.T) {
	f := buggyStdio()
	cases := []struct {
		t    trace.Trace
		want bool
	}{
		{tr("X = fopen()", "fclose(X)"), true},
		{tr("X = popen()", "fclose(X)"), true}, // the bug: accepted
		{tr("X = fopen()", "fread(X)", "fwrite(X)", "fclose(X)"), true},
		{tr("X = fopen()"), false},              // no close
		{tr("X = popen()", "pclose(X)"), false}, // pclose not in language
		{tr("fclose(X)"), false},                // close before open
		{tr(), false},                           // empty not accepted
	}
	for _, c := range cases {
		if got := f.Accepts(c.t); got != c.want {
			t.Errorf("Accepts(%q) = %v, want %v", c.t.Key(), got, c.want)
		}
	}
}

func TestRejectsAt(t *testing.T) {
	f := buggyStdio()
	if got := f.RejectsAt(tr("X = fopen()", "fclose(X)")); got != -1 {
		t.Errorf("RejectsAt accepted trace = %d, want -1", got)
	}
	if got := f.RejectsAt(tr("X = popen()", "pclose(X)")); got != 1 {
		t.Errorf("RejectsAt(pclose) = %d, want 1", got)
	}
	if got := f.RejectsAt(tr("X = fopen()", "fread(X)")); got != 2 {
		t.Errorf("RejectsAt(no close) = %d, want 2 (end of trace)", got)
	}
}

func TestExecuted(t *testing.T) {
	f := buggyStdio()
	// X = fopen(); fclose(X) executes exactly transitions 0 (fopen) and 4 (fclose).
	ex, ok := f.Executed(tr("X = fopen()", "fclose(X)"))
	if !ok {
		t.Fatal("Executed reported rejection for accepted trace")
	}
	if got := ex.String(); got != "{0, 4}" {
		t.Errorf("Executed = %s, want {0, 4}", got)
	}
	// Rejected trace: empty set, ok=false.
	ex, ok = f.Executed(tr("X = fopen()"))
	if ok || !ex.Empty() {
		t.Errorf("Executed on rejected trace = %s, ok=%v", ex, ok)
	}
	// fread and fwrite loops appear when used.
	ex, ok = f.Executed(tr("X = popen()", "fwrite(X)", "fread(X)", "fclose(X)"))
	if !ok || ex.String() != "{1, 2, 3, 4}" {
		t.Errorf("Executed = %s ok=%v, want {1, 2, 3, 4}", ex, ok)
	}
}

func TestExecutedAmbiguous(t *testing.T) {
	// Two accepting runs through different transitions: both are executed.
	b := NewBuilder("amb")
	s := b.States(4)
	b.Start(s[0])
	b.Accept(s[3])
	b.EdgeStr(s[0], "a()", s[1])
	b.EdgeStr(s[0], "a()", s[2])
	b.EdgeStr(s[1], "b()", s[3])
	b.EdgeStr(s[2], "b()", s[3])
	f := b.MustBuild()
	ex, ok := f.Executed(tr("a()", "b()"))
	if !ok || ex.Len() != 4 {
		t.Errorf("Executed = %s, want all 4 transitions", ex)
	}
}

func TestExecutedExcludesDeadBranches(t *testing.T) {
	// A transition reachable on a prefix but not on any accepting run must
	// not be reported.
	b := NewBuilder("dead")
	s := b.States(4)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "a()", s[1])
	b.EdgeStr(s[1], "b()", s[2])
	b.EdgeStr(s[0], "a()", s[3]) // dead end: s3 has no b() edge
	f := b.MustBuild()
	ex, ok := f.Executed(tr("a()", "b()"))
	if !ok || ex.String() != "{0, 1}" {
		t.Errorf("Executed = %s, want {0, 1}", ex)
	}
}

func TestAcceptingRun(t *testing.T) {
	f := buggyStdio()
	run := f.AcceptingRun(tr("X = fopen()", "fread(X)", "fclose(X)"))
	if len(run) != 3 {
		t.Fatalf("run length = %d", len(run))
	}
	// The run must be a connected path from a start to an accept state with
	// matching labels.
	want := []string{"X = fopen()", "fread(X)", "fclose(X)"}
	prev := State(-1)
	for i, ti := range run {
		tran := f.Transition(ti)
		if tran.Label.String() != want[i] {
			t.Errorf("run[%d] label = %s, want %s", i, tran.Label, want[i])
		}
		if i == 0 {
			if !f.IsStart(tran.From) {
				t.Error("run does not begin at a start state")
			}
		} else if tran.From != prev {
			t.Error("run is not connected")
		}
		prev = tran.To
	}
	if !f.IsAccept(prev) {
		t.Error("run does not end at an accepting state")
	}
	if f.AcceptingRun(tr("X = fopen()")) != nil {
		t.Error("AcceptingRun returned a run for a rejected trace")
	}
}

func TestIsDeterministic(t *testing.T) {
	if !buggyStdio().IsDeterministic() {
		t.Error("buggyStdio should be deterministic")
	}
	b := NewBuilder("nd")
	s := b.States(3)
	b.Start(s[0])
	b.Accept(s[2])
	b.EdgeStr(s[0], "a()", s[1])
	b.EdgeStr(s[0], "a()", s[2])
	if b.MustBuild().IsDeterministic() {
		t.Error("duplicate-label automaton reported deterministic")
	}
	b2 := NewBuilder("wild")
	w := b2.States(2)
	b2.Start(w[0])
	b2.Accept(w[1])
	b2.EdgeStr(w[0], "a()", w[1])
	b2.WildcardEdge(w[0], w[0])
	if b2.MustBuild().IsDeterministic() {
		t.Error("wildcard alongside explicit edge reported deterministic")
	}
}

func TestUnion(t *testing.T) {
	f := buggyStdio()
	fixed := fixedStdio()
	u := Union(f, fixed)
	for _, c := range []trace.Trace{
		tr("X = fopen()", "fclose(X)"),
		tr("X = popen()", "fclose(X)"),
		tr("X = popen()", "pclose(X)"),
	} {
		if !u.Accepts(c) {
			t.Errorf("union rejects %q", c.Key())
		}
	}
	if u.Accepts(tr("X = fopen()")) {
		t.Error("union accepts trace in neither language")
	}
}

func TestUnorderedTemplate(t *testing.T) {
	alpha := []event.Event{event.MustParse("a()"), event.MustParse("b()")}
	u := Unordered(alpha)
	if !u.Accepts(tr()) || !u.Accepts(tr("b()", "a()", "a()")) {
		t.Error("unordered template rejects traces over its alphabet")
	}
	if u.Accepts(tr("c()")) {
		t.Error("unordered template accepts out-of-alphabet trace")
	}
	ex, ok := u.Executed(tr("b()", "b()"))
	if !ok || ex.Len() != 1 {
		t.Errorf("unordered Executed = %s", ex)
	}
}

func TestNameProjectionTemplate(t *testing.T) {
	alpha := []event.Event{
		event.MustParse("X = fopen()"),
		event.MustParse("fclose(X)"),
		event.MustParse("Y = popen()"),
	}
	p := NameProjection(alpha, "X")
	full := tr("X = fopen()", "Y = popen()", "fclose(X)")
	ex, ok := p.Executed(full)
	if !ok {
		t.Fatal("projection rejected trace")
	}
	// The X events execute their own loops; popen matches only the wildcard.
	var labels []string
	ex.Range(func(i int) bool {
		labels = append(labels, p.Transition(i).Label.String())
		return true
	})
	joined := strings.Join(labels, "|")
	if !strings.Contains(joined, "X = fopen()") || !strings.Contains(joined, "fclose(X)") || !strings.Contains(joined, WildcardOp) {
		t.Errorf("projection executed = %v", labels)
	}
	for _, l := range labels {
		if strings.Contains(l, "popen") {
			t.Errorf("popen label executed explicitly in projection: %v", labels)
		}
	}
}

func TestSeedOrderTemplate(t *testing.T) {
	alpha := []event.Event{event.MustParse("a()"), event.MustParse("b()"), event.MustParse("s()")}
	f := SeedOrder(alpha, event.MustParse("s()"))
	if f.Accepts(tr("a()", "b()")) {
		t.Error("seed-order accepts trace without seed")
	}
	if !f.Accepts(tr("a()", "s()", "b()")) || !f.Accepts(tr("s()")) {
		t.Error("seed-order rejects valid trace")
	}
	// a-before-seed and a-after-seed execute different transitions.
	exBefore, _ := f.Executed(tr("a()", "s()"))
	exAfter, _ := f.Executed(tr("s()", "a()"))
	if exBefore.Equal(exAfter) {
		t.Error("seed-order does not distinguish before/after")
	}
}

func TestEnumerate(t *testing.T) {
	f := fixedStdio()
	traces := f.Enumerate(4, 50)
	if len(traces) == 0 {
		t.Fatal("Enumerate returned nothing")
	}
	for _, tc := range traces {
		if !f.Accepts(tc) {
			t.Errorf("enumerated trace rejected: %q", tc.Key())
		}
		if tc.Len() > 4 {
			t.Errorf("enumerated trace too long: %q", tc.Key())
		}
	}
	// Shortest-first: the first results are length-2.
	if traces[0].Len() != 2 {
		t.Errorf("first enumerated length = %d", traces[0].Len())
	}
	// Limit respected.
	if got := f.Enumerate(6, 3); len(got) != 3 {
		t.Errorf("limit ignored: %d", len(got))
	}
}

func TestSample(t *testing.T) {
	f := fixedStdio()
	rng := rand.New(rand.NewSource(1))
	found := 0
	for i := 0; i < 100; i++ {
		s, ok := f.Sample(rng, 8)
		if !ok {
			continue
		}
		found++
		if !f.Accepts(s) {
			t.Fatalf("sampled trace rejected: %q", s.Key())
		}
	}
	if found == 0 {
		t.Fatal("Sample never produced an accepted trace")
	}
}

func TestDotOutput(t *testing.T) {
	dot := buggyStdio().Dot()
	for _, want := range []string{"digraph", "doublecircle", "X = fopen()", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("Dot output missing %q", want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	s := buggyStdio().String()
	if !strings.Contains(s, "3 states") || !strings.Contains(s, "fclose(X)") {
		t.Errorf("String = %q", s)
	}
}

func TestIORoundTrip(t *testing.T) {
	f := fixedStdio()
	var buf strings.Builder
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	g, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Read: %v\ninput:\n%s", err, buf.String())
	}
	var again strings.Builder
	if err := Write(&again, g); err != nil {
		t.Fatal(err)
	}
	if again.String() != buf.String() {
		t.Errorf("round trip changed the automaton:\n%s\nvs\n%s", again.String(), buf.String())
	}
}

func TestIOErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"fa x\nstates 2\nstart 0\naccept 1\nedge 0 1 f()\n", // missing end
		"states 2\n",                     // outside record
		"fa x\nstates 2\nstart 5\nend\n", // bad start (caught by Build)
		"fa x\nstates 2\nstart 0\nedge 0 9 f()\nend\n",
		"fa x\nstates 2\nstart 0\nedge 0 1 ???\nend\n",
		"fa x\nbogus\nend\n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) succeeded, want error", in)
		}
	}
}
