package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/concept"
	"repro/internal/fa"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/xtrace"
)

// The pta-lattice corpus: ptaClasses distinct trace classes of the file
// handle model, the last ptaTail of them appended one at a time after the
// build. The sizes keep one pass near a fifth of a second on two cores, so
// a run holds enough passes for a tail percentile, while the Godin scan
// and cover linking still take most of each pass.
const (
	ptaClasses = 340
	ptaTail    = 16
	ptaSamples = 2000 // draws that yield well over ptaClasses classes
)

// fileHandleModel is the file-handle protocol of the concept package's
// big-corpus tests: repetition bounds wide enough that almost every draw
// is a new trace class.
func fileHandleModel() xtrace.Model {
	return xtrace.Model{
		Scenarios: []xtrace.Scenario{
			{Name: "ok", Good: true, Weight: 4, Events: []xtrace.Event{
				xtrace.Ev("open(X)"),
				xtrace.Rep("cfg(X)", 0, 4),
				xtrace.Rep("read(X)", 0, 39),
				xtrace.Rep("write(X)", 0, 39),
				xtrace.Ev("close(X)"),
			}},
			{Name: "leak", Good: false, Kind: xtrace.Leak, Weight: 2, Events: []xtrace.Event{
				xtrace.Ev("open(X)"),
				xtrace.Rep("read(X)", 0, 39),
				xtrace.Rep("write(X)", 0, 39),
			}},
			{Name: "seek-scan", Good: true, Weight: 2, Events: []xtrace.Event{
				xtrace.Ev("open(X)"),
				xtrace.Rep("seek(X)", 1, 30),
				xtrace.Rep("read(X)", 0, 29),
				xtrace.Opt("flush(X)"),
				xtrace.Ev("close(X)"),
				xtrace.Ev("free(X)"),
			}},
			{Name: "double-free", Good: false, Kind: xtrace.Misuse, Weight: 1, Events: []xtrace.Event{
				xtrace.Ev("open(X)"),
				xtrace.Rep("read(X)", 0, 19),
				xtrace.Ev("close(X)"),
				xtrace.Ev("free(X)"),
				xtrace.Rep("free(X)", 1, 2),
			}},
		},
	}
}

// ptaCorpus is the workload's input: trace text holding exactly
// ptaClasses classes, and the number of events it carries.
type ptaCorpus struct {
	text     []byte
	events   int64
	concepts int // lattice size every pass must reproduce
}

// setupPTA draws from the model and keeps the first ptaClasses classes
// (with their multiplicities), so every seed yields the same class count.
func setupPTA(seed int64) (ptaCorpus, error) {
	gen := xtrace.Generator{Model: fileHandleModel(), Seed: seed}
	drawn, _ := gen.ScenarioSet(ptaSamples)
	if drawn.NumClasses() < ptaClasses {
		return ptaCorpus{}, fmt.Errorf("pta-lattice: %d draws gave %d classes, want %d", ptaSamples, drawn.NumClasses(), ptaClasses)
	}
	set := &trace.Set{}
	for _, c := range drawn.Classes()[:ptaClasses] {
		for _, id := range c.IDs {
			t := c.Rep
			t.ID = id
			set.Add(t)
		}
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, set); err != nil {
		return ptaCorpus{}, err
	}
	return ptaCorpus{text: buf.Bytes(), events: setEvents(set)}, nil
}

// ptaOut is what one pass produced, for the correctness checks.
type ptaOut struct {
	lattice *concept.Lattice
	reps    []trace.Trace
	ref     *fa.FA
	adds    int
}

// ptaPass parses the corpus, learns its prefix-tree acceptor (the
// ladder's shipped fallback), builds the lattice of all but the tail and
// appends the tail one trace at a time, as cabled's add_traces does.
func ptaPass(ctx context.Context, c ptaCorpus, clock *layerClock, pr *probe) (ptaOut, error) {
	set, err := pr.readTraces(clock, c.text)
	if err != nil {
		return ptaOut{}, fmt.Errorf("read traces: %w", err)
	}
	t := time.Now()
	res, err := learn.PTA("pta", allTraces(set))
	t = clock.since("learn", t)
	if err != nil {
		return ptaOut{}, fmt.Errorf("learn PTA: %w", err)
	}
	reps := set.Representatives()
	head := len(reps) - ptaTail
	fc, err := concept.TraceContextCtx(ctx, reps[:head], res.FA, 0)
	t = clock.since("concept.context", t)
	if err != nil {
		return ptaOut{}, fmt.Errorf("context: %w", err)
	}
	l, err := pr.build(ctx, clock, fc)
	if err != nil {
		return ptaOut{}, fmt.Errorf("build: %w", err)
	}
	t = time.Now()
	out := ptaOut{lattice: l, reps: reps, ref: res.FA}
	for _, tr := range reps[head:] {
		err := l.AddTraceCtx(ctx, tr, res.FA)
		t = clock.since("concept.incr_add", t)
		if err != nil {
			return out, fmt.Errorf("add trace %s: %w", tr.ID, err)
		}
		out.adds++
	}
	return out, nil
}

// checkPTASnapshot requires the post-add lattice to be byte-identical to
// a fresh build over the final classes.
func checkPTASnapshot(ctx context.Context, out ptaOut) error {
	fc, err := concept.TraceContextCtx(ctx, out.reps, out.ref, 0)
	if err != nil {
		return fmt.Errorf("reference context: %w", err)
	}
	fresh, err := concept.BuildCtx(ctx, fc, concept.WithWorkers(0))
	if err != nil {
		return fmt.Errorf("reference build: %w", err)
	}
	var a, b bytes.Buffer
	if err := concept.WriteSnapshot(&a, out.lattice); err != nil {
		return fmt.Errorf("snapshot after adds: %w", err)
	}
	if err := concept.WriteSnapshot(&b, fresh); err != nil {
		return fmt.Errorf("snapshot of fresh build: %w", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("lattice after %d adds (%d concepts) differs from a fresh build (%d concepts)",
			out.adds, out.lattice.Len(), fresh.Len())
	}
	return nil
}

// runPTALattice measures lattice builds and incremental adds on a
// prefix-tree reference, where the lattice engine dominates. Passes cycle
// through the run's input sets.
func runPTALattice(o options) (*report, error) {
	rep := newReport("pta-lattice")
	var corpora []ptaCorpus
	err := rep.timeSetup(func() (*child, error) {
		for j := 0; j < inputSets; j++ {
			c, err := setupPTA(subSeed(o.seed, j))
			if err != nil {
				return nil, err
			}
			corpora = append(corpora, c)
		}
		return nil, nil
	}, func() error {
		corpora = nil
		return nil
	})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	// A first, untimed pass over each corpus yields the lattice size every
	// timed pass must reproduce, and the once-per-run snapshot check.
	pr := newProbe()
	var concepts, attrs float64
	for i := range corpora {
		c := &corpora[i]
		first, err := ptaPass(ctx, *c, newLayerClock(), pr)
		if err != nil {
			return nil, err
		}
		rep.tally.op(checkPTASnapshot(ctx, first))
		c.concepts = first.lattice.Len()
		concepts += float64(c.concepts)
		attrs += float64(first.ref.NumTransitions())
	}
	next := 0
	pass := func(clock *layerClock) int64 {
		c := &corpora[next%len(corpora)]
		next++
		out, err := ptaPass(ctx, *c, clock, pr)
		if err == nil && out.lattice.Len() != c.concepts {
			err = fmt.Errorf("pass built %d concepts, first pass %d", out.lattice.Len(), c.concepts)
		}
		rep.tally.op(err)
		return c.events
	}
	plainDur, tracedDur := phaseSplit(o)
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	rep.plain, err = closedLoop(os.Getpid(), 1, plainDur, func(int) (int64, bool) { return pass(newLayerClock()), true })
	if err != nil {
		return nil, err
	}
	if err := rep.selfPeakRSS(); err != nil {
		return nil, err
	}
	n := float64(len(corpora))
	rep.extra = append(rep.extra,
		figure{"classes", ptaClasses, "count"},
		figure{"tail_adds", ptaTail, "count"},
		figure{"mean_concepts", concepts / n, "count"},
		figure{"mean_attributes", attrs / n, "count"})
	if !o.trace {
		return rep, nil
	}
	clock := newLayerClock()
	m := obs.Enable()
	r0 := pr.rt.read()
	rep.traced, err = closedLoop(os.Getpid(), 1, tracedDur, func(int) (int64, bool) { return pass(clock), true })
	if err != nil {
		return nil, err
	}
	r1 := pr.rt.read()
	snap := m.Snapshot()
	obs.Disable()
	setBatchLayers(rep, clock, snap, pr)
	rep.layers["concept.concepts"] = concepts / n
	rep.layers["concept.incr_add_ms"] = clock.perCall("concept.incr_add")
	if b := clock.perCall("concept.build"); b > 0 {
		rep.layers["concept.add_vs_build_ratio"] = clock.perCall("concept.incr_add") / b
	}
	setRuntimeLayers(rep.layers, r0, r1, rep.traced)
	rep.finishTraced(ms(clock.total()) / float64(len(rep.traced.passes)))
	return rep, nil
}
