package exp

import (
	"fmt"
	"strings"

	"repro/internal/cable"
	"repro/internal/core"
	"repro/internal/fa/lang"
	"repro/internal/mine"
	"repro/internal/specs"
	"repro/internal/xtrace"
)

// E2ERow reports one specification's full Section 2.2 round trip: generate
// erroneous program runs, mine a (buggy) specification, debug the scenario
// traces through a Cable session labeled by ground truth, rerun the back
// end on the good traces, and compare the result with the known-correct
// specification.
type E2ERow struct {
	Spec            string
	Scenarios       int
	UniqueScenarios int
	// MinedAcceptsBad counts erroneous scenario classes the freshly mined
	// spec accepts (the debugging problem; > 0 for every corpus spec).
	MinedAcceptsBad int
	// TrainGoodAccepted is the fraction of good scenario classes the
	// relearned spec accepts (1.0 expected: the learner accepts its
	// training set).
	TrainGoodAccepted float64
	// GoodAgreement is the fraction of a bounded sample of the correct
	// specification's language that the relearned spec accepts. Values
	// below 1 measure how far the hand-derived correct FA generalizes
	// beyond anything a data-driven learner could recover (order-free
	// loops, unbounded repetition) — not a debugging failure.
	GoodAgreement float64
	// BadRejected is the fraction of erroneous scenario classes the
	// relearned spec rejects (1.0 = every injected bug eliminated).
	BadRejected float64
	// Equivalent reports exact language equality with the correct FA.
	Equivalent bool
}

// EndToEnd runs the round trip for one specification.
func EndToEnd(spec specs.Spec, cfg Config) (E2ERow, error) {
	row := E2ERow{Spec: spec.Name}
	gen := xtrace.Generator{Model: spec.Model, Seed: cfg.Seed}
	runs, truth := gen.Runs(cfg.scale(spec.Name)/2, 2)
	miner := mine.Miner{FrontEnd: mine.FrontEnd{
		Seeds:         spec.Model.SeedOps(),
		FollowDerived: true,
	}}
	mined, scenarios, err := miner.Mine(spec.Name+"-mined", runs)
	if err != nil {
		return row, err
	}
	row.Scenarios = scenarios.Total()
	row.UniqueScenarios = scenarios.NumClasses()

	session, err := core.DebugMined(mined, scenarios)
	if err != nil {
		return row, err
	}
	minedSim := mined.Sim()
	badClasses := 0
	for i, t := range session.Representatives() {
		key := t.Key()
		good, known := truth[key]
		if !known {
			return row, fmt.Errorf("exp: %s: extracted scenario %q missing from ground truth", spec.Name, key)
		}
		label := cable.Bad
		if good {
			label = cable.Good
		}
		if err := session.LabelTrace(i, label); err != nil {
			return row, err
		}
		if !good {
			badClasses++
			if minedSim.Accepts(t) {
				row.MinedAcceptsBad++
			}
		}
	}
	relearned, err := core.RelearnGood(session, miner)
	if err != nil {
		return row, err
	}

	// Training-set fidelity: every good class accepted. The relearned FA is
	// replayed over three trace sweeps below; compile its plan once.
	relearnedSim := relearned.Sim()
	goodClasses, goodAccepted := 0, 0
	labels := session.Labels()
	for i, t := range session.Representatives() {
		if labels[i] == cable.Good {
			goodClasses++
			if relearnedSim.Accepts(t) {
				goodAccepted++
			}
		}
	}
	if goodClasses > 0 {
		row.TrainGoodAccepted = float64(goodAccepted) / float64(goodClasses)
	}

	// Language agreement with the correct specification.
	sample := spec.FA.Enumerate(10, 300)
	accepted := 0
	for _, t := range sample {
		if relearnedSim.Accepts(t) {
			accepted++
		}
	}
	if len(sample) > 0 {
		row.GoodAgreement = float64(accepted) / float64(len(sample))
	}
	rejected := 0
	for i, t := range session.Representatives() {
		if labels[i] == cable.Bad && !relearnedSim.Accepts(t) {
			rejected++
		}
	}
	if badClasses > 0 {
		row.BadRejected = float64(rejected) / float64(badClasses)
	} else {
		row.BadRejected = 1
	}
	row.Equivalent, _, err = lang.Equivalent(relearned, spec.FA)
	if err != nil {
		return row, err
	}
	return row, nil
}

// EndToEndAll runs the round trip for the whole corpus.
func EndToEndAll(cfg Config) ([]E2ERow, error) {
	var rows []E2ERow
	for _, s := range specs.All() {
		row, err := EndToEnd(s, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatE2E renders the round-trip table.
func FormatE2E(rows []E2ERow) string {
	var b strings.Builder
	b.WriteString("End-to-end: mine -> debug -> relearn vs the correct specification\n")
	fmt.Fprintf(&b, "%-14s %9s %7s %9s %10s %10s %9s %10s\n",
		"spec", "scenarios", "unique", "minedBad", "trainGood", "goodAgree", "badRej", "equivalent")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9d %7d %9d %9.0f%% %9.0f%% %8.0f%% %10v\n",
			r.Spec, r.Scenarios, r.UniqueScenarios, r.MinedAcceptsBad,
			100*r.TrainGoodAccepted, 100*r.GoodAgreement, 100*r.BadRejected, r.Equivalent)
	}
	return b.String()
}
