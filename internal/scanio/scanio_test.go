package scanio

import (
	"bufio"
	"errors"
	"runtime"
	"strings"
	"testing"
)

func TestScannerUnderLimit(t *testing.T) {
	long := strings.Repeat("a", MaxLineBytes-1)
	sc := NewScanner(strings.NewReader(long + "\n"))
	if !sc.Scan() {
		t.Fatalf("scan failed on line just under limit: %v", sc.Err())
	}
	if len(sc.Text()) != MaxLineBytes-1 {
		t.Errorf("got %d bytes", len(sc.Text()))
	}
	if sc.Err() != nil {
		t.Errorf("unexpected error: %v", sc.Err())
	}
}

func TestScannerOverLimit(t *testing.T) {
	long := strings.Repeat("a", MaxLineBytes+1)
	sc := NewScanner(strings.NewReader(long + "\n"))
	for sc.Scan() {
	}
	if !errors.Is(sc.Err(), bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", sc.Err())
	}
	wrapped := LineError("trace", 1, sc.Err())
	if !strings.Contains(wrapped.Error(), "trace: line 1:") {
		t.Errorf("wrapped = %q, missing subsystem/line prefix", wrapped)
	}
	if !strings.Contains(wrapped.Error(), "4194304-byte limit") {
		t.Errorf("wrapped = %q, limit not spelled out", wrapped)
	}
	if !errors.Is(wrapped, bufio.ErrTooLong) {
		t.Error("wrapped error lost the bufio.ErrTooLong cause")
	}
}

func TestLineErrorNil(t *testing.T) {
	if LineError("x", 3, nil) != nil {
		t.Error("LineError(nil) != nil")
	}
}

func TestLineErrorGeneric(t *testing.T) {
	cause := errors.New("disk on fire")
	got := LineError("fa", 12, cause)
	if got.Error() != "fa: line 12: disk on fire" {
		t.Errorf("got %q", got)
	}
	if !errors.Is(got, cause) {
		t.Error("cause not wrapped")
	}
}

// TestScannerSizedFromLen checks the length-sized starting buffer: inputs
// shorter than the default buffer, with and without a final newline, scan
// to the same lines, and the buffer never grows — a whole scan costs the
// scanner and one buffer of the input's length plus one byte.
func TestScannerSizedFromLen(t *testing.T) {
	for _, text := range []string{
		"",
		"a",
		"a\n",
		"line one\nline two",
		"line one\nline two\n",
		strings.Repeat("x", 5000) + "\n" + strings.Repeat("y", 70000),
	} {
		want := strings.Split(strings.TrimSuffix(text, "\n"), "\n")
		if text == "" {
			want = nil
		}
		var got []string
		sc := NewScanner(strings.NewReader(text))
		for sc.Scan() {
			got = append(got, sc.Text())
		}
		if sc.Err() != nil || strings.Join(got, "|") != strings.Join(want, "|") || len(got) != len(want) {
			t.Errorf("%d-byte input: got %d lines (err %v), want %d", len(text), len(got), sc.Err(), len(want))
		}
	}
	text := strings.Repeat("an event line\n", 100)
	var bytesPerScan uint64
	allocs := testing.AllocsPerRun(10, func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sc := NewScanner(strings.NewReader(text))
		for sc.Scan() {
		}
		runtime.ReadMemStats(&after)
		bytesPerScan = after.TotalAlloc - before.TotalAlloc
	})
	if allocs > 3 || bytesPerScan > uint64(len(text))+1024 {
		t.Errorf("scanning %d bytes allocated %v times, %d bytes; want the scanner and one input-sized buffer",
			len(text), allocs, bytesPerScan)
	}
}
