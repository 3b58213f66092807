package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/scanio"
)

// eventLineOfLength builds a parseable event line (indentation included)
// of exactly n bytes: "  vvv...v = op()".
func eventLineOfLength(n int) string {
	const overhead = len("  ") + len(" = op()")
	return "  " + strings.Repeat("v", n-overhead) + " = op()"
}

func TestReadMaxLengthEventLine(t *testing.T) {
	// The longest line bufio.Scanner can return under a max token size of
	// MaxLineBytes is MaxLineBytes-1 bytes; that line must parse.
	line := eventLineOfLength(scanio.MaxLineBytes - 1)
	input := "trace a\n" + line + "\nend\n"
	set, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatalf("Read at limit: %v", err)
	}
	if set.Total() != 1 || len(set.Class(0).Rep.Events) != 1 {
		t.Fatalf("unexpected shape: %d traces", set.Total())
	}
	// And it must survive the round trip (Write re-adds the indentation).
	var buf bytes.Buffer
	if err := Write(&buf, set); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("reparse at limit: %v", err)
	}
}

func TestReadOverlongLineError(t *testing.T) {
	line := eventLineOfLength(scanio.MaxLineBytes)
	input := "trace a\n" + line + "\nend\n"
	_, err := Read(strings.NewReader(input))
	if err == nil {
		t.Fatal("Read accepted a line over the scanner limit")
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("err = %v, want wrapped bufio.ErrTooLong", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "trace: line 2:") {
		t.Errorf("error lacks file position: %q", msg)
	}
	if !strings.Contains(msg, "4194304-byte limit") {
		t.Errorf("error does not spell out the limit: %q", msg)
	}
}

// duplicateCorpus renders one trace record of n distinct events followed
// by dups duplicates of it under fresh IDs.
func duplicateCorpus(n, dups int) string {
	var b strings.Builder
	for r := 0; r <= dups; r++ {
		fmt.Fprintf(&b, "trace t%d\n", r)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "  X%d = op%d(X, Y)\n", i, i)
		}
		b.WriteString("end\n")
	}
	return b.String()
}

// allocsPerDuplicate measures the allocations Read spends on each
// duplicate record of an n-event trace.
func allocsPerDuplicate(t *testing.T, read func(io.Reader) (*Set, error), n int) float64 {
	const dups = 64
	allocs := func(dups int) float64 {
		text := duplicateCorpus(n, dups)
		return testing.AllocsPerRun(20, func() {
			if _, err := read(strings.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
	}
	return (allocs(2*dups) - allocs(dups)) / dups
}

// TestReadAllocsPerDuplicate pins the cost of a duplicate record: its ID
// and its share of the class's ID list, independent of how many events
// the record holds. Doubling the event count must not raise it.
func TestReadAllocsPerDuplicate(t *testing.T) {
	short := allocsPerDuplicate(t, Read, 16)
	long := allocsPerDuplicate(t, Read, 32)
	if long > short {
		t.Errorf("allocs per duplicate grew with the record: %.2f at 16 events, %.2f at 32", short, long)
	}
	if short > 2 {
		t.Errorf("allocs per duplicate = %.2f, want at most 2 (its ID and its slot in the ID list)", short)
	}
	t.Logf("allocs per duplicate: %.2f at 16 events, %.2f at 32; reference parser: %.2f, %.2f",
		short, long, allocsPerDuplicate(t, refRead, 16), allocsPerDuplicate(t, refRead, 32))
}
