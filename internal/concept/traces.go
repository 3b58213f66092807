package concept

import (
	"context"
	"fmt"

	"repro/internal/fa"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TraceContext builds the formal context of Section 3.2 from a set of traces
// and a reference FA: objects are the traces, attributes are the FA's
// transitions, and (o, a) ∈ R iff transition a lies on some accepting run of
// the FA on o. It is TraceContextCtx without cancellation or a worker bound.
func TraceContext(traces []trace.Trace, ref *fa.FA) (*Context, error) {
	return TraceContextCtx(context.Background(), traces, ref, 0)
}

// TraceContextCtx is TraceContext with cancellation and an explicit worker
// bound (0 means GOMAXPROCS).
//
// Every trace must be accepted by the reference FA — the paper requires a
// reference FA that "recognizes (at least)" the traces being clustered. A
// rejected trace yields an error naming it, so callers can pick a coarser
// reference FA (fa.FromTraces always works).
//
// The reference FA is compiled once (fa.Sim) and the traces are simulated
// over a bounded worker pool, one simulation per trace; the relation is
// assembled in input order and therefore identical to a serial run.
// Callers pass distinct traces (trace.Set.Representatives), so nothing is
// simulated twice. Cancellation is checked between traces: once ctx is
// done no new simulation starts and ctx.Err() is returned.
func TraceContextCtx(ctx context.Context, traces []trace.Trace, ref *fa.FA, workers int) (*Context, error) {
	sp := obs.StartSpan("concept.context")
	defer sp.End()
	obs.Count("concept.context.traces", int64(len(traces)))
	// Strided cancellation checks keep the naming and relation loops
	// responsive on very large inputs without paying a select per item.
	done := ctx.Done()
	cancelled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	objNames := make([]string, len(traces))
	for i, t := range traces {
		if i&1023 == 0 && cancelled() {
			return nil, ctx.Err()
		}
		name := t.ID
		if name == "" {
			name = fmt.Sprintf("t%d", i)
		}
		objNames[i] = name
	}
	attrNames := make([]string, ref.NumTransitions())
	for i, tr := range ref.Transitions() {
		if i&1023 == 0 && cancelled() {
			return nil, ctx.Err()
		}
		attrNames[i] = tr.String()
	}
	fc := NewContext(objNames, attrNames)
	executed, accepted, err := ref.Sim().ExecutedAllCtx(ctx, traces, workers)
	if err != nil {
		return nil, err
	}
	for o := range traces {
		if o&1023 == 0 && cancelled() {
			return nil, ctx.Err()
		}
		if !accepted[o] {
			return nil, fmt.Errorf("concept: reference FA %q rejects trace %q (%s)", ref.Name(), objNames[o], traces[o].Key())
		}
		executed[o].Range(func(a int) bool {
			fc.Relate(o, a)
			return true
		})
	}
	return fc, nil
}

// BuildFromTraces is the one-call form of Step 1 of the paper's method:
// compute the context of traces × executed transitions and construct its
// concept lattice.
func BuildFromTraces(traces []trace.Trace, ref *fa.FA) (*Lattice, error) {
	return BuildFromTracesCtx(context.Background(), traces, ref, 0)
}

// BuildFromTracesCtx is BuildFromTraces with cancellation and a worker
// bound, for callers serving remote requests: a done ctx aborts both the
// context computation and the lattice construction between work items.
func BuildFromTracesCtx(ctx context.Context, traces []trace.Trace, ref *fa.FA, workers int) (*Lattice, error) {
	fc, err := TraceContextCtx(ctx, traces, ref, workers)
	if err != nil {
		return nil, err
	}
	return BuildCtx(ctx, fc, WithWorkers(workers))
}
