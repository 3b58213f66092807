package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzTraceRoundTrip checks the Write → Read identity in depth: any set
// Read accepts must serialize and reparse to identical classes — same
// order, same IDs, same keys, same counts — not merely the same shape.
// Seeds cover empty-ID records, comment/blank interleaving, and long
// event lines (the unified scanner limit itself is exercised by
// TestReadMaxLengthEventLine; a multi-megabyte line is too large for a
// fuzz corpus entry).
func FuzzTraceRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"trace\nend\n",                    // empty-ID record
		"trace\nend\ntrace\n  f()\nend\n", // two records, both empty IDs
		"# header\n\ntrace a\n# mid\n  f()\n\nend\n# trailer\n", // comments/blanks interleaved
		"trace a\n  X = fopen()\n  fclose(X)\nend\n\n# c\n\ntrace a\n  X = fopen()\n  fclose(X)\nend\n",
		"trace " + strings.Repeat("i", 512) + "\n  " + strings.Repeat("v", 1024) + " = op()\nend\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		set, err := Read(strings.NewReader(s))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, set); err != nil {
			t.Fatalf("Write of parsed set failed: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip does not reparse: %v", err)
		}
		if again.Total() != set.Total() || again.NumClasses() != set.NumClasses() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				set.Total(), set.NumClasses(), again.Total(), again.NumClasses())
		}
		for i := 0; i < set.NumClasses(); i++ {
			a, b := set.Class(i), again.Class(i)
			if a.Rep.Key() != b.Rep.Key() {
				t.Fatalf("class %d key changed: %q -> %q", i, a.Rep.Key(), b.Rep.Key())
			}
			if a.Count != b.Count {
				t.Fatalf("class %d count changed: %d -> %d", i, a.Count, b.Count)
			}
			if strings.Join(a.IDs, "\x00") != strings.Join(b.IDs, "\x00") {
				t.Fatalf("class %d IDs changed: %q -> %q", i, a.IDs, b.IDs)
			}
		}
	})
}

// FuzzRead checks that the trace-file reader never panics and that
// anything it accepts survives a write/read round trip.
func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		"trace a\n  f()\nend\n",
		"trace\nend\n",
		"# comment\n\ntrace x\n  X = fopen()\n  fclose(X)\nend\n",
		"trace a\ntrace b\nend\n",
		"end\n",
		"garbage\n",
		"trace a\n  not an event\nend\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		set, err := Read(strings.NewReader(s))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, set); err != nil {
			// IDs with whitespace cannot be produced by Read (IDs are
			// single fields), so Write must succeed.
			t.Fatalf("Write of parsed set failed: %v", err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip does not reparse: %v", err)
		}
		if again.Total() != set.Total() || again.NumClasses() != set.NumClasses() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				set.Total(), set.NumClasses(), again.Total(), again.NumClasses())
		}
	})
}

// FuzzReadMatchesReference checks Read against refRead, the plain parser
// it replaced (io_ref_test.go): on every input both must accept or reject
// alike, with the same error text (line numbers included), and accepted
// inputs must yield the same classes in the same order — representatives
// (events and ID), IDs, counts, totals and class keys.
func FuzzReadMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"trace a\n  f()\nend\n",
		"trace\nend\n",
		"trace a\n  X = fopen()\n  fclose(X)\nend\ntrace b\n  X = fopen()\n  fclose(X)\nend\ntrace c\n  X = fopen()\nend\n",
		"trace a\n  f( X ,Y )\n  f(X, Y)\nend\ntrace b\n  f(X,Y)\n  f(X, Y)\nend\n",
		"# comment\n\ntrace x\n  g()\nend\n",
		"trace a b\nend\n",
		"trace\ta\nend\n",
		"trace  a  \nend\n",
		"trace a\ntrace b\nend\n",
		"end\n",
		"  f()\n",
		"trace a\n  not an event\nend\n",
		"trace a\n  f()\n",
		"trace a\n  f()\n  = g()\nend\n",
		"trace a\nend\ntrace a\nend\ntrace\nend\n",
		"trace a\u00a0b\nend\n",
		"trace \xffa\n  f()\nend\n\u2028trace b\n\u00a0 f() \nend\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := Read(strings.NewReader(s))
		want, wantErr := refRead(strings.NewReader(s))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Read error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("Read error %q, reference error %q", gotErr, wantErr)
			}
			return
		}
		if got.Total() != want.Total() || got.NumClasses() != want.NumClasses() {
			t.Fatalf("Read shape %d/%d, reference %d/%d",
				got.Total(), got.NumClasses(), want.Total(), want.NumClasses())
		}
		if !reflect.DeepEqual(got.Classes(), want.Classes()) {
			t.Fatalf("Read classes %#v, reference %#v", got.Classes(), want.Classes())
		}
		for i, c := range want.Classes() {
			if got.ClassOfKey(c.Rep.Key()) != i {
				t.Fatalf("class %d key %q indexed at %d", i, c.Rep.Key(), got.ClassOfKey(c.Rep.Key()))
			}
		}
	})
}
