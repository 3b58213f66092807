package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/event"
	"repro/internal/scanio"
)

// refRead is the line parser Read replaced: it parses every event line
// with event.Parse and inserts each record through Set.Add. It is the
// oracle of FuzzReadMatchesReference.
func refRead(r io.Reader) (*Set, error) {
	s := &Set{}
	sc := scanio.NewScanner(r)
	var (
		cur    *Trace
		lineno int
	)
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case line == "trace" || strings.HasPrefix(line, "trace "):
			if cur != nil {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("nested trace record"))
			}
			fields := strings.Fields(line)
			if len(fields) > 2 {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("trace ID must be a single word"))
			}
			id := ""
			if len(fields) == 2 {
				id = fields[1]
			}
			cur = &Trace{ID: id}
		case line == "end":
			if cur == nil {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("end outside trace record"))
			}
			s.Add(*cur)
			cur = nil
		default:
			if cur == nil {
				return nil, scanio.LineError("trace", lineno, fmt.Errorf("event outside trace record"))
			}
			e, err := event.Parse(line)
			if err != nil {
				return nil, scanio.LineError("trace", lineno, err)
			}
			cur.Events = append(cur.Events, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, scanio.LineError("trace", lineno+1, err)
	}
	if cur != nil {
		return nil, fmt.Errorf("trace: unterminated trace record %q", cur.ID) //cablevet:ignore errwrapline whole-input error, no line to blame
	}
	return s, nil
}
