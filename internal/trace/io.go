package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"

	"repro/internal/event"
	"repro/internal/obs"
	"repro/internal/scanio"
)

// The text format for trace files:
//
//	# comment lines and blank lines are ignored
//	trace <id>
//	  <event>
//	  ...
//	end
//
// Event lines use the syntax of event.Parse. IDs may not contain whitespace;
// "trace" with no ID assigns an empty ID.

// Write serializes the traces of a set (one record per trace, duplicates
// included) to w.
func Write(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	for _, c := range s.Classes() {
		for j := 0; j < c.Count; j++ {
			t := c.Rep
			t.ID = c.IDs[j]
			if err := WriteTrace(bw, t); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteTrace serializes a single trace record.
func WriteTrace(w io.Writer, t Trace) error {
	if strings.ContainsAny(t.ID, " \t\n") {
		return fmt.Errorf("trace: ID %q contains whitespace", t.ID)
	}
	if _, err := fmt.Fprintf(w, "trace %s\n", t.ID); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(w, "  %s\n", e); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "end")
	return err
}

// Read parses a trace file into a Set.
//
// Read parses each distinct event line once: later occurrences of the same
// (trimmed) line reuse the parsed event, so events of one Set share their
// Uses slices (see event.Event). It builds each record's class key while it
// reads the record's events, into a buffer reused across records, and
// copies the record's events out of a reused buffer only when the record
// opens a new class; a duplicate record costs its ID.
func Read(r io.Reader) (*Set, error) {
	sp := obs.StartSpan("trace.read")
	defer sp.End()
	s := &Set{}
	sc := scanio.NewScanner(r)
	var (
		parsed = map[string]event.Event{} // trimmed event line -> event
		open   bool                       // inside a trace record
		id     string                     // the open record's ID
		evs    []event.Event              // the open record's events
		key    []byte                     // the open record's Trace.AppendKey bytes
		lineno int
		events int64
	)
	for sc.Scan() {
		lineno++
		line := bytes.TrimSpace(sc.Bytes())
		switch {
		case len(line) == 0 || line[0] == '#':
			continue
		case string(line) == "trace" || bytes.HasPrefix(line, []byte("trace ")):
			if open {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("nested trace record"))
			}
			rest := bytes.TrimSpace(line[len("trace"):])
			if bytes.IndexFunc(rest, unicode.IsSpace) >= 0 {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("trace ID must be a single word"))
			}
			open, id = true, string(rest)
		case string(line) == "end":
			if !open {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("end outside trace record"))
			}
			s.insert(key, Trace{ID: id, Events: evs}, true)
			open, evs, key = false, evs[:0], key[:0]
		default:
			if !open {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("event outside trace record"))
			}
			e, ok := parsed[string(line)]
			if !ok {
				text := string(line)
				var err error
				if e, err = event.Parse(text); err != nil {
					return nil, scanio.LineError("trace", lineno, err)
				}
				parsed[text] = e
			}
			if len(evs) > 0 {
				key = append(key, "; "...)
			}
			key = e.AppendString(key)
			evs = append(evs, e)
			events++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, scanio.LineError("trace", lineno+1, err)
	}
	if open {
		return nil, fmt.Errorf("trace: unterminated trace record %q", id) //cablevet:ignore errwrapline whole-input error, no line to blame
	}
	obs.Count("trace.read.lines", int64(lineno))
	obs.Count("trace.read.traces", int64(s.Total()))
	obs.Count("trace.read.events", events)
	return s, nil
}
