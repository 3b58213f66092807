package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/fa"
	"repro/internal/server/apiv1"
	"repro/internal/specs"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// The stream workload: streamCount open streams checking the streaming
// form of the Stdio specification (loopingFA), split between the two connections, each fed
// batchEvents-event NDJSON batches cut from a script of scriptScenarios
// scenario instances. A stream whose script is used up is closed and
// reopened to replay it.
const (
	streamCount     = 8
	scriptScenarios = 2000
	batchEvents     = 256
	// rssEvents is the event count at which the run reads cabled's peak
	// RSS. Every violation folded into the session keeps growing it, so
	// reading at a fixed amount of work, not at the end of a run whose
	// length in events varies with speed, makes the figure comparable.
	rssEvents = 2_000_000
)

// streamScript is one stream's batches and what an offline checker
// reports for each.
type streamScript struct {
	batches   [][]byte // NDJSON
	events    []int    // events per batch
	want      []int    // violations per batch
	wantFinal bool     // closing the stream reports a violation
}

// streamInput is everything the stream workload sends.
type streamInput struct {
	createSession []byte // CreateSessionRequest JSON
	spec          string // looping Stdio FA text, checked by every stream
	scripts       []streamScript
}

// setupStreamInput generates the scripts from the Stdio model and replays
// each through an offline stream.Checker for the expected violations. The
// session's reference is the permissive FA over the scripts' alphabet, so
// every violation window folds into its lattice.
func setupStreamInput(seed int64) (streamInput, error) {
	sp := specs.Stdio()
	gen := xtrace.Generator{Model: sp.Model, Seed: seed}
	set, _ := gen.ScenarioSet(90)
	scripts, _ := gen.Streams(streamCount, scriptScenarios)
	seen := map[string]bool{}
	var alphabet []event.Event
	addEvents := func(es []event.Event) {
		for _, e := range es {
			if k := e.String(); !seen[k] {
				seen[k] = true
				alphabet = append(alphabet, e)
			}
		}
	}
	addEvents(set.Alphabet())
	for _, s := range scripts {
		addEvents(s.Events)
	}
	var tr, ref, spec bytes.Buffer
	if err := trace.Write(&tr, set); err != nil {
		return streamInput{}, err
	}
	if err := fa.Write(&ref, fa.FromTraces(alphabet)); err != nil {
		return streamInput{}, err
	}
	specFA := loopingFA(sp.FA)
	if err := fa.Write(&spec, specFA); err != nil {
		return streamInput{}, err
	}
	create, err := json.Marshal(apiv1.CreateSessionRequest{Traces: tr.String(), RefFA: ref.String()})
	if err != nil {
		return streamInput{}, err
	}
	in := streamInput{createSession: create, spec: spec.String()}
	sim := specFA.Sim()
	for _, s := range scripts {
		chk := stream.New(sim, stream.Config{})
		var out streamScript
		for lo := 0; lo < len(s.Events); lo += batchEvents {
			hi := min(lo+batchEvents, len(s.Events))
			batch := xtrace.StreamScript{Events: s.Events[lo:hi]}.NDJSON()
			n := 0
			if _, issues, err := stream.Ingest(chk, bytes.NewReader(batch), func(stream.Violation) { n++ }); err != nil || len(issues) > 0 {
				return streamInput{}, fmt.Errorf("offline replay of %s: %v %v", s.ID, err, issues)
			}
			out.batches = append(out.batches, batch)
			out.events = append(out.events, hi-lo)
			out.want = append(out.want, n)
		}
		_, out.wantFinal = chk.Finalize()
		in.scripts = append(in.scripts, out)
	}
	return in, nil
}

// loopingFA is the streaming form of a specification: its start states
// also accept, and every transition that completes a protocol instance may
// also return to a start state, so a stream of back-to-back correct
// instances is accepted end to end and only faulty instances violate.
func loopingFA(f *fa.FA) *fa.FA {
	b := fa.NewBuilder(f.Name() + "-stream")
	states := b.States(f.NumStates())
	for _, s := range f.StartStates() {
		b.Start(states[s])
		b.Accept(states[s])
	}
	for _, s := range f.AcceptStates() {
		b.Accept(states[s])
	}
	for _, t := range f.Transitions() {
		b.Edge(states[t.From], t.Label, states[t.To])
		if f.IsAccept(t.To) {
			for _, s := range f.StartStates() {
				b.Edge(states[t.From], t.Label, states[s])
			}
		}
	}
	return b.MustBuild()
}

// streamRig is a child with the workload's session and open streams.
type streamRig struct {
	ch      *child
	session string
	ids     []string // open stream per script
	next    []int    // next batch per script
	turn    []int    // per connection: how many passes it has made
	events  atomic.Int64
	rssOnce sync.Once
	rssMB   float64 // cabled's peak RSS once rssEvents were accepted
}

// openStream binds a new stream to the rig's session.
func openStream(c *client, in *streamInput, session string) (string, error) {
	body, err := json.Marshal(apiv1.OpenStreamRequest{SessionID: session, Spec: in.spec})
	if err != nil {
		return "", err
	}
	var r apiv1.OpenStreamResponse
	if err := c.call("open_stream", "POST", "/v1/streams", body, &r); err != nil {
		return "", err
	}
	return r.StreamID, nil
}

// startStreamRig starts a child, creates the session and opens one stream
// per script.
func startStreamRig(o options, in *streamInput, traced bool, tl *tally) (*streamRig, error) {
	ch, err := startCabled(o, traced)
	if err != nil {
		return nil, err
	}
	rig := &streamRig{ch: ch, next: make([]int, len(in.scripts)), turn: make([]int, 2)}
	tr := newTransport()
	defer tr.CloseIdleConnections()
	c := newClient(ch.base, tr, tl)
	var cr apiv1.CreateSessionResponse
	err = c.call("create_session", "POST", "/v1/sessions", in.createSession, &cr)
	rig.session = cr.SessionID
	for range in.scripts {
		if err != nil {
			break
		}
		var id string
		id, err = openStream(c, in, rig.session)
		rig.ids = append(rig.ids, id)
	}
	if err != nil {
		tl.op(ch.stop())
		return nil, err
	}
	return rig, nil
}

// batchStats counts what the traced phase's batches carried.
type batchStats struct {
	batches, events, violations atomic.Int64
}

// streamPass posts the next batch of the connection's next stream and
// checks the reply against the offline replay. A stream whose script is
// used up is closed (its final verdict checked) and reopened first; that
// upkeep is not a batch and is left out of the pass samples.
func streamPass(c *client, in *streamInput, rig *streamRig, conn int, st *batchStats) (int64, bool) {
	k := conn + 2*(rig.turn[conn]%(len(in.scripts)/2))
	rig.turn[conn]++
	s := &in.scripts[k]
	if rig.next[k] == len(s.batches) {
		var cr apiv1.CloseStreamResponse
		err := c.do("close_stream", "DELETE", "/v1/streams/"+rig.ids[k], nil, &cr)
		if err == nil && (cr.Violation != nil) != s.wantFinal {
			err = fmt.Errorf("close %s: final violation %v, offline replay %v", rig.ids[k], cr.Violation != nil, s.wantFinal)
		}
		c.tl.op(err)
		id, err := openStream(c, in, rig.session)
		if err != nil {
			return 0, false
		}
		rig.ids[k], rig.next[k] = id, 0
		return 0, false
	}
	b := rig.next[k]
	rig.next[k]++
	var r apiv1.StreamEventsResponse
	err := c.do("stream_events", "POST", "/v1/streams/"+rig.ids[k]+"/events", s.batches[b], &r)
	if err == nil && (r.Accepted != s.events[b] || len(r.Violations) != s.want[b] || len(r.Errors) > 0) {
		err = fmt.Errorf("stream %s batch %d: accepted %d violations %d errors %d, offline replay %d and %d",
			rig.ids[k], b, r.Accepted, len(r.Violations), len(r.Errors), s.events[b], s.want[b])
	}
	if c.tl.op(err) != nil {
		return 0, true
	}
	if rig.events.Add(int64(r.Accepted)) >= rssEvents {
		rig.rssOnce.Do(func() {
			var err error
			rig.rssMB, err = peakRSSMB(rig.ch.cmd.Process.Pid)
			c.tl.op(err)
		})
	}
	if st != nil {
		st.batches.Add(1)
		st.events.Add(int64(r.Accepted))
		st.violations.Add(int64(len(r.Violations)))
	}
	return int64(r.Accepted), true
}

// runStream drives NDJSON batches into open streams over two connections.
func runStream(o options) (*report, error) {
	rep := newReport("stream")
	var (
		in  streamInput
		rig *streamRig
	)
	err := rep.timeSetup(func() (*child, error) {
		var err error
		if in, err = setupStreamInput(o.seed); err != nil {
			return nil, err
		}
		if rig, err = startStreamRig(o, &in, false, rep.tally); err != nil {
			return nil, err
		}
		return rig.ch, nil
	}, func() error {
		rep.tally.op(rig.ch.stop())
		in = streamInput{}
		return nil
	})
	if err != nil {
		if rig != nil {
			rep.tally.op(rig.ch.stop())
		}
		return nil, err
	}
	plainDur, tracedDur := phaseSplit(o)
	var m *client
	rep.plain, m, err = httpPhase(rig.ch, 2, plainDur, rep.tally, func(c *client, conn int) (int64, bool) {
		return streamPass(c, &in, rig, conn, nil)
	})
	rep.tally.op(rig.ch.stop())
	if err != nil {
		return nil, err
	}
	rep.peakRSSMB = rig.rssMB
	if rep.peakRSSMB == 0 {
		rep.peakRSSMB = rig.ch.rssMB
	}
	batches := sorted(m.routes["stream_events"].lat)
	rep.extra = append(rep.extra,
		figure{"batch_p50_ms", median(batches), "ms"},
		figure{"batch_p99_ms", percentile(batches, 0.99), "ms"})
	if !o.trace {
		return rep, nil
	}
	if rig, err = startStreamRig(o, &in, true, rep.tally); err != nil {
		return nil, err
	}
	var st batchStats
	start := time.Now()
	rep.traced, m, err = httpPhase(rig.ch, 2, tracedDur, rep.tally, func(c *client, conn int) (int64, bool) {
		return streamPass(c, &in, rig, conn, &st)
	})
	snap, serr := rig.ch.metrics()
	rep.tally.op(serr)
	var wal int64
	if fi, err := os.Stat(filepath.Join(rig.ch.dir, rig.session+".wal")); err == nil {
		wal = fi.Size()
	}
	rep.tally.op(rig.ch.stop())
	if err != nil {
		return nil, err
	}
	setHTTPLayers(rep, rig.ch, start, m, snap)
	events, posted := st.events.Load(), st.batches.Load()
	rep.layers["stream.events"] = float64(events)
	if events > 0 {
		rep.layers["stream.violation_ratio"] = float64(st.violations.Load()) / float64(events)
	}
	rep.layers["stream.fold_ms"] = spanMeanMs(snap, "lattice.incr.add")
	if posted > 0 {
		rep.layers["persist.wal_bytes_per_op"] = float64(wal) / float64(posted)
	}
	return rep, nil
}
