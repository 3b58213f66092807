package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cable"
	"repro/internal/exp"
	"repro/internal/fa"
	"repro/internal/server/apiv1"
	"repro/internal/specs"
	"repro/internal/strategy"
	"repro/internal/trace"
)

// The session pool: every Table 1/2 specification's corpus at
// poolSeeds seeds. It outnumbers cabled's default 64-entry lattice cache
// and is visited round-robin, so each iteration's first create misses and
// its second hits: a hit ratio of about one half.
const (
	poolSeeds    = 5
	heldOutTotal = 6 // traces in each iteration's /traces batch
)

// sessCorpus is one pool entry with everything an iteration sends and
// every answer it checks.
type sessCorpus struct {
	name       string
	create     []byte // CreateSessionRequest JSON
	add        []byte // AddTracesRequest JSON: held-out traces the reference accepts
	addN       int
	concepts   int               // num_concepts of an in-process build
	ops        []strategy.Op     // the Expert plan over that build
	opBodies   [][]byte          // LabelRequest JSON of each labeling op
	labels     map[string]string // trace key → ground-truth label
	events     int64             // events an iteration uploads
	traceBytes int64             // trace text an iteration uploads
}

// setupSessionPool prepares every pool corpus in-process, as exp.Prepare
// does (mined → finer → PTA reference), so the expected answers come from
// the same code cabled runs.
func setupSessionPool(seed int64) ([]sessCorpus, error) {
	var pool []sessCorpus
	for j := 0; j < poolSeeds; j++ {
		s := subSeed(seed, j)
		for _, sp := range specs.All() {
			c, err := prepareSessCorpus(sp, s)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", sp.Name, s, err)
			}
			pool = append(pool, c)
		}
	}
	return pool, nil
}

func prepareSessCorpus(sp specs.Spec, seed int64) (sessCorpus, error) {
	e, err := exp.Prepare(sp, exp.Config{Seed: seed})
	if err != nil {
		return sessCorpus{}, err
	}
	plan, _, ok := strategy.ExpertPlan(e.Lattice, e.Truth)
	if !ok {
		return sessCorpus{}, fmt.Errorf("no Expert plan")
	}
	var tr, ref bytes.Buffer
	if err := trace.Write(&tr, e.Set); err != nil {
		return sessCorpus{}, err
	}
	if err := fa.Write(&ref, e.Ref); err != nil {
		return sessCorpus{}, err
	}
	held := heldOut(seed, e.Set, e.Ref)
	var ht bytes.Buffer
	if err := trace.Write(&ht, held); err != nil {
		return sessCorpus{}, err
	}
	create, err := json.Marshal(apiv1.CreateSessionRequest{Traces: tr.String(), RefFA: ref.String()})
	if err != nil {
		return sessCorpus{}, err
	}
	add, err := json.Marshal(apiv1.AddTracesRequest{Traces: ht.String()})
	if err != nil {
		return sessCorpus{}, err
	}
	bodies := make([][]byte, len(plan.Ops))
	for i, op := range plan.Ops {
		if op.Label == cable.Unlabeled {
			continue
		}
		id := op.Concept
		if bodies[i], err = json.Marshal(apiv1.LabelRequest{Concept: &id, Selector: &apiv1.Selector{Mode: "unlabeled"}, Label: string(op.Label)}); err != nil {
			return sessCorpus{}, err
		}
	}
	labels := map[string]string{}
	for i, t := range e.Set.Representatives() {
		labels[t.Key()] = string(e.Truth[i])
	}
	return sessCorpus{
		name:       sp.Name,
		create:     create,
		add:        add,
		addN:       held.Total(),
		concepts:   e.Lattice.Len(),
		ops:        plan.Ops,
		opBodies:   bodies,
		labels:     labels,
		events:     2*setEvents(e.Set) + setEvents(held),
		traceBytes: int64(2*tr.Len() + ht.Len()),
	}, nil
}

// heldOut picks heldOutTotal traces the reference FA accepts, new classes
// first: traces of its language the corpus lacks, chosen by the seed, so
// the batch appended to the cache-hit session forces a copy-on-write
// detach and incremental adds.
func heldOut(seed int64, set *trace.Set, ref *fa.FA) *trace.Set {
	var novel []trace.Trace
	for _, t := range ref.Enumerate(12, 256) {
		if set.ClassOf(t) < 0 {
			novel = append(novel, t)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(novel), func(i, j int) { novel[i], novel[j] = novel[j], novel[i] })
	// The corpus's own classes are always accepted: they fill any gap.
	out := &trace.Set{}
	for i, t := range append(novel, set.Representatives()...) {
		if i == heldOutTotal {
			break
		}
		t.ID = fmt.Sprintf("held%d", i)
		out.Add(t)
	}
	return out
}

// setEvents counts the events of every trace in s, duplicates included.
func setEvents(s *trace.Set) int64 {
	var n int64
	for _, c := range s.Classes() {
		n += int64(c.Count * len(c.Rep.Events))
	}
	return n
}

// walCounter sums, in the traced phase, the WAL bytes of each iteration's
// sessions just before they are deleted, and the operations that wrote them.
type walCounter struct {
	dir          string
	bytes, ops   atomic.Int64
	uploadedText atomic.Int64
}

func (w *walCounter) record(ids []string, ops int) {
	for _, id := range ids {
		if fi, err := os.Stat(filepath.Join(w.dir, id+".wal")); err == nil {
			w.bytes.Add(fi.Size())
		}
	}
	w.ops.Add(int64(ops))
}

// sessionIteration is one closed-loop pass: create, create again (a cache
// hit), list and inspect concepts, replay the Expert plan through /label,
// append held-out traces to the cache-hit session, export labels, delete
// both. It returns the events uploaded, or 0 when a step failed.
func sessionIteration(c *client, cp *sessCorpus, wal *walCounter) int64 {
	var ids []string
	defer func() {
		for _, id := range ids {
			c.call("delete_session", "DELETE", "/v1/sessions/"+id, nil, nil)
		}
	}()
	var a, b apiv1.CreateSessionResponse
	err := c.do("create_session", "POST", "/v1/sessions", cp.create, &a)
	if err == nil {
		ids = append(ids, a.SessionID)
		if a.NumConcepts != cp.concepts {
			err = fmt.Errorf("%s: create reports %d concepts, in-process build %d", cp.name, a.NumConcepts, cp.concepts)
		}
	}
	if c.tl.op(err) != nil {
		return 0
	}
	err = c.do("create_session", "POST", "/v1/sessions", cp.create, &b)
	if err == nil {
		ids = append(ids, b.SessionID)
		if !b.CacheHit || b.NumConcepts != cp.concepts {
			err = fmt.Errorf("%s: second create cache_hit=%v concepts=%d, want a hit with %d", cp.name, b.CacheHit, b.NumConcepts, cp.concepts)
		}
	}
	if c.tl.op(err) != nil {
		return 0
	}
	sa := "/v1/sessions/" + a.SessionID
	var list apiv1.ConceptList
	err = c.do("list_concepts", "GET", sa+"/concepts", nil, &list)
	if err == nil && len(list.Concepts) != cp.concepts {
		err = fmt.Errorf("%s: listed %d concepts, want %d", cp.name, len(list.Concepts), cp.concepts)
	}
	if c.tl.op(err) != nil {
		return 0
	}
	walOps := 0
	for i, op := range cp.ops {
		if op.Label == cable.Unlabeled {
			var got apiv1.Concept
			err = c.do("get_concept", "GET", fmt.Sprintf("%s/concepts/%d", sa, op.Concept), nil, &got)
			if err == nil && got.ID != op.Concept {
				err = fmt.Errorf("%s: get concept %d returned %d", cp.name, op.Concept, got.ID)
			}
		} else {
			var lr apiv1.LabelResponse
			err = c.do("label", "POST", sa+"/label", cp.opBodies[i], &lr)
			if err == nil && lr.Labeled == 0 {
				err = fmt.Errorf("%s: label concept %d labeled nothing", cp.name, op.Concept)
			}
			walOps++
		}
		if c.tl.op(err) != nil {
			return 0
		}
	}
	var ar apiv1.AddTracesResponse
	err = c.do("add_traces", "POST", "/v1/sessions/"+b.SessionID+"/traces", cp.add, &ar)
	if err == nil && ar.Added != cp.addN {
		err = fmt.Errorf("%s: added %d traces, sent %d", cp.name, ar.Added, cp.addN)
	}
	if c.tl.op(err) != nil {
		return 0
	}
	walOps++
	var ex apiv1.LabelsExport
	err = c.do("export_labels", "GET", sa+"/labels", nil, &ex)
	if err == nil {
		err = checkExport(cp, ex)
	}
	if c.tl.op(err) != nil {
		return 0
	}
	if wal != nil {
		wal.record(ids, walOps)
		wal.uploadedText.Add(cp.traceBytes)
	}
	return cp.events
}

// checkExport requires the exported labels to equal the ground truth.
func checkExport(cp *sessCorpus, ex apiv1.LabelsExport) error {
	if len(ex.Labels) != len(cp.labels) {
		return fmt.Errorf("%s: exported %d labels, want %d", cp.name, len(ex.Labels), len(cp.labels))
	}
	for _, l := range ex.Labels {
		if want := cp.labels[l.Key]; l.Label != want {
			return fmt.Errorf("%s: class %q exported %q, ground truth %q", cp.name, l.Key, l.Label, want)
		}
	}
	return nil
}

// runSession drives create → label → add → export → delete iterations
// against a cabled child from two closed-loop clients.
func runSession(o options) (*report, error) {
	rep := newReport("session")
	var (
		pool []sessCorpus
		ch   *child
	)
	err := rep.timeSetup(func() (_ *child, err error) {
		if pool, err = setupSessionPool(o.seed); err != nil {
			return nil, err
		}
		ch, err = startCabled(o, false)
		return ch, err
	}, func() error {
		rep.tally.op(ch.stop())
		pool = nil
		return nil
	})
	if err != nil {
		if ch != nil {
			ch.stop()
		}
		return nil, err
	}
	var next atomic.Int64
	iteration := func(wal *walCounter) func(*client, int) (int64, bool) {
		return func(c *client, _ int) (int64, bool) {
			k := int(next.Add(1)-1) % len(pool)
			return sessionIteration(c, &pool[k], wal), true
		}
	}
	plainDur, tracedDur := phaseSplit(o)
	var m *client
	rep.plain, m, err = httpPhase(ch, 2, plainDur, rep.tally, iteration(nil))
	rep.tally.op(ch.stop())
	if err != nil {
		return nil, err
	}
	rep.peakRSSMB = ch.rssMB
	isCreate := func(route string) bool { return route == "create_session" }
	creates := sorted(m.latencies(isCreate))
	requests := sorted(m.latencies(func(route string) bool { return !isCreate(route) }))
	rep.extra = append(rep.extra,
		figure{"pool", float64(len(pool)), "corpora"},
		figure{"sessions_per_s", float64(len(creates)) / rep.plain.elapsed.Seconds(), "1/s"},
		figure{"create_p50_ms", median(creates), "ms"},
		figure{"create_p99_ms", percentile(creates, 0.99), "ms"},
		figure{"request_p50_ms", median(requests), "ms"},
		figure{"request_p99_ms", percentile(requests, 0.99), "ms"})
	if !o.trace {
		return rep, nil
	}
	if ch, err = startCabled(o, true); err != nil {
		return nil, err
	}
	wal := &walCounter{dir: ch.dir}
	start := time.Now()
	rep.traced, m, err = httpPhase(ch, 2, tracedDur, rep.tally, iteration(wal))
	snap, serr := ch.metrics()
	rep.tally.op(serr)
	rep.tally.op(ch.stop())
	if err != nil {
		return nil, err
	}
	setHTTPLayers(rep, ch, start, m, snap)
	if n := wal.ops.Load(); n > 0 {
		rep.layers["persist.wal_bytes_per_op"] = float64(wal.bytes.Load()) / float64(n)
	}
	if sum := spanMs(snap, "trace.read"); sum > 0 {
		rep.layers["trace.read_mb_per_s"] = float64(wal.uploadedText.Load()) / 1e6 / (sum / 1e3)
	}
	return rep, nil
}
