package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/cable"
	"repro/internal/concept"
	"repro/internal/exp"
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/strategy"
	"repro/internal/trace"
	"repro/internal/wellformed"
	"repro/internal/xtrace"
)

// t2corpus is one specification's input to the table2 workload: the trace
// text written at set-up, its ground truth, and the expected Table 2 row.
type t2corpus struct {
	name   string
	text   []byte
	truth  xtrace.Labeling
	events int64         // trace events in the text, duplicates included
	labels string        // expected label export, sorted lines
	want   exp.Table2Row // exp.Table2's row for the same seed
}

// rung is one reference-FA candidate of exp.Prepare's ladder.
type rung struct {
	kind  exp.RefKind
	learn func(name string, all []trace.Trace) (*learn.Result, error)
}

// ladder mirrors exp.Prepare: the mined FA, then a finer learner, then the
// prefix-tree acceptor, each tried until the lattice is well-formed.
var ladder = []rung{
	{exp.RefMined, func(name string, all []trace.Trace) (*learn.Result, error) {
		return learn.DefaultLearner.Learn(name+"-mined", all)
	}},
	{exp.RefFiner, func(name string, all []trace.Trace) (*learn.Result, error) {
		return learn.Learner{K: 3, S: 0.95, Agreement: learn.And}.Learn(name+"-finer", all)
	}},
	{exp.RefPTA, func(name string, all []trace.Trace) (*learn.Result, error) {
		return learn.PTA(name+"-pta", all)
	}},
}

// setupTable2 writes every Table 1/2 specification's workload at
// exp.DefaultScale as trace text, exactly as exp.Prepare generates it, for
// each of the run's input sets.
func setupTable2(seed int64) ([]t2corpus, error) {
	var out []t2corpus
	for j := 0; j < inputSets; j++ {
		sets, err := setupTable2Set(subSeed(seed, j))
		if err != nil {
			return nil, err
		}
		out = append(out, sets...)
	}
	return out, nil
}

func setupTable2Set(seed int64) ([]t2corpus, error) {
	var out []t2corpus
	for _, sp := range specs.All() {
		gen := xtrace.Generator{Model: sp.Model, Seed: seed}
		set, truth := gen.ScenarioSet(exp.DefaultScale(sp.Name))
		var buf bytes.Buffer
		if err := trace.Write(&buf, set); err != nil {
			return nil, fmt.Errorf("%s: write traces: %w", sp.Name, err)
		}
		out = append(out, t2corpus{
			name:   sp.Name,
			text:   buf.Bytes(),
			truth:  truth,
			events: setEvents(set),
			labels: exportLines(set.Representatives(), truthLabels(set.Representatives(), truth)),
		})
	}
	return out, nil
}

// truthLabels maps each class representative to its ground-truth label.
func truthLabels(reps []trace.Trace, truth xtrace.Labeling) []cable.Label {
	out := make([]cable.Label, len(reps))
	for i, t := range reps {
		out[i] = cable.Bad
		if truth[t.Key()] {
			out[i] = cable.Good
		}
	}
	return out
}

// exportLines renders labels the way a label export does: one
// "<label>\t<trace key>" line per labeled class, sorted.
func exportLines(reps []trace.Trace, labels []cable.Label) string {
	var lines []string
	for i, l := range labels {
		if l != cable.Unlabeled {
			lines = append(lines, string(l)+"\t"+reps[i].Key())
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// allTraces expands a set into every trace it holds, duplicates included,
// as the learners consume it.
func allTraces(set *trace.Set) []trace.Trace {
	var all []trace.Trace
	for _, c := range set.Classes() {
		for _, id := range c.IDs {
			t := c.Rep
			t.ID = id
			all = append(all, t)
		}
	}
	return all
}

// t2stats accumulates the table2 counters the traced run reports.
type t2stats struct {
	refsBuilt, refsKept int
	concepts            int
}

// t2pass runs the pipeline over every corpus, one specification at a
// time, and checks each output.
func t2pass(ctx context.Context, corpora []t2corpus, clock *layerClock, st *t2stats, pr *probe, tl *tally) int64 {
	var events int64
	for i := range corpora {
		c := &corpora[i]
		tl.op(t2one(ctx, c, clock, st, pr))
		events += c.events
	}
	return events
}

func t2one(ctx context.Context, c *t2corpus, clock *layerClock, st *t2stats, pr *probe) error {
	set, err := pr.readTraces(clock, c.text)
	if err != nil {
		return fmt.Errorf("%s: read traces: %w", c.name, err)
	}
	reps := set.Representatives()
	truth := truthLabels(reps, c.truth)
	all := allTraces(set)
	var (
		ref     *fa.FA
		kind    exp.RefKind
		lattice *concept.Lattice
	)
	for _, r := range ladder {
		t := time.Now()
		res, err := r.learn(c.name, all)
		t = clock.since("learn", t)
		if err != nil {
			return fmt.Errorf("%s: learn %s: %w", c.name, r.kind, err)
		}
		st.refsBuilt++
		fc, err := concept.TraceContextCtx(ctx, reps, res.FA, 0)
		t = clock.since("concept.context", t)
		if err != nil {
			return fmt.Errorf("%s: context: %w", c.name, err)
		}
		l, err := pr.build(ctx, clock, fc)
		t = time.Now()
		if err != nil {
			return fmt.Errorf("%s: build: %w", c.name, err)
		}
		ok, _ := wellformed.Check(l, truth)
		clock.since("wellformed", t)
		if ok {
			ref, kind, lattice = res.FA, r.kind, l
			break
		}
	}
	if ref == nil {
		return fmt.Errorf("%s: no reference FA yields a well-formed lattice", c.name)
	}
	st.refsKept++
	st.concepts += lattice.Len()
	t := time.Now()
	sess, err := cable.NewSession(set, ref, cable.WithContext(ctx), cable.WithLattice(lattice))
	t = clock.since("cable", t)
	if err != nil {
		return fmt.Errorf("%s: session: %w", c.name, err)
	}
	plan, _, ok := strategy.ExpertPlan(lattice, truth)
	if ok {
		err = plan.Apply(sess)
	}
	clock.since("strategy", t)
	if !ok || err != nil {
		return fmt.Errorf("%s: expert plan (ok=%v): %v", c.name, ok, err)
	}
	got := exp.Table2Row{Unique: set.NumClasses(), Attrs: ref.NumTransitions(), RefKind: kind, Concepts: lattice.Len()}
	if got.Unique != c.want.Unique || got.Attrs != c.want.Attrs || got.RefKind != c.want.RefKind || got.Concepts != c.want.Concepts {
		return fmt.Errorf("%s: unique/attrs/ref/concepts %d/%d/%s/%d, exp.Table2 has %d/%d/%s/%d", c.name,
			got.Unique, got.Attrs, got.RefKind, got.Concepts, c.want.Unique, c.want.Attrs, c.want.RefKind, c.want.Concepts)
	}
	if exported := exportLines(sess.Representatives(), sess.Labels()); exported != c.labels {
		return fmt.Errorf("%s: exported labels differ from the ground truth", c.name)
	}
	return nil
}

// runTable2 measures the paper's pipeline from trace text to labeled
// lattice over the 17 Table 1/2 specifications. A pass runs every input
// set's table.
func runTable2(o options) (*report, error) {
	rep := newReport("table2")
	var corpora []t2corpus
	err := rep.timeSetup(func() (_ *child, err error) {
		corpora, err = setupTable2(o.seed)
		return nil, err
	}, func() error {
		corpora = nil
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j := 0; j < inputSets; j++ {
		rows, err := exp.Table2(exp.Config{Seed: subSeed(o.seed, j)})
		if err != nil {
			return nil, fmt.Errorf("reference exp.Table2: %w", err)
		}
		set := corpora[j*len(rows) : (j+1)*len(rows)]
		for i := range set {
			if rows[i].Name != set[i].name {
				return nil, fmt.Errorf("exp.Table2 row %d is %s, want %s", i, rows[i].Name, set[i].name)
			}
			set[i].want = rows[i]
		}
	}
	ctx := context.Background()
	var st t2stats
	pr := newProbe()
	plainDur, tracedDur := phaseSplit(o)
	clock := newLayerClock()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rep.plain, err = closedLoop(os.Getpid(), 1, plainDur, func(int) (int64, bool) { return t2pass(ctx, corpora, clock, &st, pr, rep.tally), true })
	if err != nil {
		return nil, err
	}
	if err := rep.selfPeakRSS(); err != nil {
		return nil, err
	}
	if !o.trace {
		return rep, nil
	}
	st = t2stats{}
	clock = newLayerClock()
	m := obs.Enable()
	r0 := pr.rt.read()
	rep.traced, err = closedLoop(os.Getpid(), 1, tracedDur, func(int) (int64, bool) { return t2pass(ctx, corpora, clock, &st, pr, rep.tally), true })
	if err != nil {
		return nil, err
	}
	r1 := pr.rt.read()
	snap := m.Snapshot()
	obs.Disable()
	setBatchLayers(rep, clock, snap, pr)
	n := len(rep.traced.passes)
	rep.layers["learn.ref_useful_ratio"] = float64(st.refsKept) / float64(st.refsBuilt)
	rep.layers["concept.concepts"] = float64(st.concepts) / float64(st.refsKept)
	rep.layers["wellformed.check_ms"] = clock.perPass("wellformed", n)
	rep.layers["cable.session_ms"] = clock.perPass("cable", n)
	rep.layers["strategy.apply_ms"] = clock.perPass("strategy", n)
	setRuntimeLayers(rep.layers, r0, r1, rep.traced)
	rep.finishTraced(ms(clock.total()) / float64(n))
	return rep, nil
}

// setBatchLayers fills the layer metrics the two in-process workloads
// share from the benchmark's layer clock and the obs snapshot of the
// traced phase, and the probe's counts.
func setBatchLayers(rep *report, clock *layerClock, snap obs.Snapshot, pr *probe) {
	n := len(rep.traced.passes)
	per := func(v float64) float64 { return v / float64(n) }
	rep.layers["trace.read_ms"] = clock.perPass("trace", n)
	if pr.reads > 0 {
		rep.layers["trace.read_mb_per_s"] = float64(pr.readBytes) / 1e6 / (ms(clock.sums["trace"]) / 1e3)
		rep.layers["trace.read_allocs"] = float64(pr.readAllocs) / float64(pr.reads)
	}
	rep.layers["learn.learn_ms"] = clock.perPass("learn", n)
	rep.layers["fa.executedall_ms"] = per(spanMs(snap, "fa.executedall"))
	rep.layers["fa.compile_ms"] = per(spanMs(snap, "fa.compile"))
	rep.layers["fa.memo_hit_ratio"] = memoHitRatio(snap)
	rep.layers["concept.context_ms"] = clock.perPass("concept.context", n)
	rep.layers["concept.build_ms"] = clock.perPass("concept.build", n)
	linkCovers := spanMs(snap, "lattice.link_covers")
	rep.layers["concept.link_covers_ms"] = per(linkCovers)
	rep.layers["concept.godin_ms"] = per(ms(clock.sums["concept.build"]) - linkCovers - pr.tablesInBuilds)
	rep.layers["concept.linkcovers_worker_util_pct"] = float64(snap.Hists["lattice.linkcovers.worker_util_pct"].Mean())
}
