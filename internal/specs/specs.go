// Package specs defines the specification corpus of the evaluation: the
// seventeen debugged Strauss specifications of Table 1 — X11/Xt protocols
// for selections, translation and accelerator tables, timeouts, quarks,
// atoms, regions, graphics contexts, images, fonts, pixmaps, input sources,
// displays, and Xt heap storage — plus the stdio fopen/popen example that
// Section 2 works through.
//
// Each Spec couples
//
//   - the correct (debugged) specification FA, derived mechanically from
//     the good usage templates (Table 1 reports its size), and
//   - a workload model (internal/xtrace) with the correct usage patterns
//     and the error modes the paper reports: resource leaks, mismatched or
//     doubled releases, use-after-free, and the races and performance bugs
//     among the 199 bugs the debugged specifications found.
//
// The paper names fourteen of the seventeen specifications in its
// discussion (XGetSelOwner, XSetSelOwner, XtOwnSel, PrsTransTbl,
// RmvTimeOut, Quarks, XInternAtom, PrsAccelTbl, RegionsAlloc, XFreeGC,
// XPutImage, XSetFont, XtFree, RegionsBig); the remaining three here
// (XOpenDisplay, XCreatePixmap, XtAddInput) are reconstructed in the same
// style, as DESIGN.md records.
package specs

import (
	"fmt"

	"repro/internal/fa"
	"repro/internal/fa/lang"
	"repro/internal/xtrace"
)

// Spec is one entry of the corpus.
type Spec struct {
	// Name is the short name used throughout the evaluation tables.
	Name string
	// Description is the English translation of the specification, in the
	// style of Table 1.
	Description string
	// Model is the workload model generating correct and erroneous
	// scenarios for this protocol.
	Model xtrace.Model
	// FA is the correct (debugged) specification automaton.
	FA *fa.FA
	// Buggy is the seeded buggy variant of FA: the same good templates
	// plus one of the model's error modes, so its language strictly
	// contains the correct one and the speclint differ always has a
	// concrete separating witness to extract. It plays the role of the
	// pre-debugging specification the paper starts each session from.
	Buggy *fa.FA
}

// DeriveFA builds the correct specification FA from the model's good
// templates: each template contributes a chain whose bounded repetitions
// become self-loops (accepting any count at least the minimum), and the
// union is determinized and minimized. The result accepts every good
// expansion and, for every corpus model, none of the bad ones — tests
// enforce both.
func DeriveFA(name string, m xtrace.Model) (*fa.FA, error) {
	return deriveFA(name, m, func(sc xtrace.Scenario) bool { return sc.Good })
}

// ProgramFA builds a model of a program's possible per-object behaviour:
// the union of every scenario template, good and bad. Checking this
// automaton against a specification with verify.Static plays the role of
// the paper's static verification tool — the program "appears to" execute
// every behaviour of the model, and the violation traces are the
// behaviours the specification rejects.
func ProgramFA(name string, m xtrace.Model) (*fa.FA, error) {
	return deriveFA(name+"-program", m, func(xtrace.Scenario) bool { return true })
}

func deriveFA(name string, m xtrace.Model, include func(xtrace.Scenario) bool) (*fa.FA, error) {
	b := fa.NewBuilder(name)
	for _, sc := range m.Scenarios {
		if !include(sc) {
			continue
		}
		cur := b.State()
		b.Start(cur)
		for _, ev := range sc.Events {
			for i := 0; i < ev.Min; i++ {
				next := b.State()
				b.EdgeStr(cur, ev.Sym, next)
				cur = next
			}
			if ev.Max > ev.Min {
				b.EdgeStr(cur, ev.Sym, cur)
			}
		}
		b.Accept(cur)
	}
	nfa, err := b.Build()
	if err != nil {
		return nil, err
	}
	min, err := lang.Minimize(nfa)
	if err != nil {
		return nil, err
	}
	return min.WithName(name), nil
}

// BuggyFA derives the seeded buggy specification: the good templates plus
// the first error-mode scenario whose behaviours the correct FA rejects.
// The result's language strictly contains the correct one — lang.Includes
// verifies the strictness, so a separating witness is guaranteed to
// exist.
func BuggyFA(name string, m xtrace.Model) (*fa.FA, error) {
	correct, err := DeriveFA(name, m)
	if err != nil {
		return nil, err
	}
	for _, sc := range m.Scenarios {
		if sc.Good {
			continue
		}
		bad := sc.Name
		buggy, err := deriveFA(name+"-buggy", m, func(s xtrace.Scenario) bool {
			return s.Good || s.Name == bad
		})
		if err != nil {
			return nil, err
		}
		inc, _, err := lang.Includes(buggy, correct)
		if err != nil {
			return nil, err
		}
		if !inc {
			return buggy, nil
		}
	}
	return nil, fmt.Errorf("specs: %s: no error-mode scenario escapes the correct language", name)
}

// mustSpec validates the model and derives the FA, panicking on authoring
// mistakes; the corpus is static data, so failures are programmer errors.
func mustSpec(name, description string, m xtrace.Model) Spec {
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("specs: %s: %v", name, err))
	}
	f, err := DeriveFA(name, m)
	if err != nil {
		panic(fmt.Sprintf("specs: %s: %v", name, err))
	}
	buggy, err := BuggyFA(name, m)
	if err != nil {
		panic(err.Error())
	}
	return Spec{Name: name, Description: description, Model: m, FA: f, Buggy: buggy}
}

// Stdio returns the Section 2 example: the stdio file-pointer protocol
// whose buggy form (Figure 1) lets fclose close pipes.
func Stdio() Spec {
	return mustSpec("Stdio",
		"A file pointer returned by fopen must be closed with fclose; a pipe returned by popen must be closed with pclose.",
		xtrace.Model{
			Scenarios: []xtrace.Scenario{
				{Name: "file", Good: true, Weight: 8, Events: []xtrace.Event{
					xtrace.Ev("X = fopen()"),
					xtrace.Rep("fread(X)", 0, 2),
					xtrace.Rep("fwrite(X)", 0, 2),
					xtrace.Ev("fclose(X)"),
				}},
				{Name: "pipe", Good: true, Weight: 6, Events: []xtrace.Event{
					xtrace.Ev("X = popen()"),
					xtrace.Rep("fread(X)", 0, 2),
					xtrace.Rep("fwrite(X)", 0, 1),
					xtrace.Ev("pclose(X)"),
				}},
				{Name: "pipe-fclose", Good: false, Kind: xtrace.Misuse, Weight: 2, Events: []xtrace.Event{
					xtrace.Ev("X = popen()"),
					xtrace.Rep("fread(X)", 0, 1),
					xtrace.Ev("fclose(X)"),
				}},
				{Name: "file-leak", Good: false, Kind: xtrace.Leak, Weight: 1, Events: []xtrace.Event{
					xtrace.Ev("X = fopen()"),
					xtrace.Rep("fread(X)", 1, 2),
				}},
				{Name: "file-pclose", Good: false, Kind: xtrace.Misuse, Weight: 1, Events: []xtrace.Event{
					xtrace.Ev("X = fopen()"),
					xtrace.Ev("pclose(X)"),
				}},
			},
			Noise: []string{"puts()", "printf()"},
		})
}

// FigureOneFA returns the buggy specification of Figure 1: fclose is
// allowed to close any file pointer, whether fopen or popen produced it.
func FigureOneFA() *fa.FA {
	b := fa.NewBuilder("stdio-figure1")
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
