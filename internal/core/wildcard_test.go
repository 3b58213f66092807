package core

import (
	"testing"

	"repro/internal/cable"
	"repro/internal/fa"
	"repro/internal/trace"
	"repro/internal/verify"
)

// TestWildcardSpecIsAnError pins the contract that the language
// operations of Step 3 and of the static verifier refuse a specification
// with wildcard transitions rather than expanding the wildcard over some
// finite alphabet, which would silently narrow the language.
func TestWildcardSpecIsAnError(t *testing.T) {
	spec := fa.MustCompile("wild", "X = fopen() .* fclose(X)")
	program := fa.MustCompile("program", "X = popen() pclose(X) | X = fopen() fread(X) fclose(X)")
	set := trace.NewSet(trace.ParseEvents("v1", "X = popen()", "pclose(X)"))
	session, err := cable.NewSession(set, ReferenceFA(set))
	if err != nil {
		t.Fatal(err)
	}
	if err := session.LabelTrace(0, cable.Good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"core.FixSpec", func() error {
			_, err := FixSpec(spec, session)
			return err
		}},
		{"verify.Static", func() error {
			_, err := verify.Static(program, spec, 6, 10)
			return err
		}},
		{"verify.Conforms", func() error {
			_, err := verify.Conforms(program, spec)
			return err
		}},
	} {
		if err := tc.run(); err == nil {
			t.Errorf("%s accepted a wildcard specification", tc.name)
		}
	}
}
