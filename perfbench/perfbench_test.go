package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/stream"
	"repro/internal/trace"
)

func TestTailOf(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	if got := tailOf(s); got.value != 90 || got.beyond != 10 {
		t.Errorf("100 samples: tail %+v, want the 90th with 10 beyond", got)
	}
	s = s[:0]
	for i := 1; i <= 5000; i++ {
		s = append(s, float64(i))
	}
	if got := tailOf(s); got.value != 4500 || got.pct != 90 {
		t.Errorf("5000 samples: tail %+v, want the p90 cap, 4500", got)
	}
	if got := tailOf([]float64{3, 7}); got.value != 7 || got.beyond != 0 {
		t.Errorf("2 samples: tail %+v, want the maximum", got)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestParseObsText(t *testing.T) {
	m := obs.New()
	m.Counter("server.cache.hits").Add(7)
	m.Gauge("lattice.linkcovers.workers").Set(2)
	m.Histogram("lattice.concepts").Observe(40)
	m.Histogram("lattice.concepts").Observe(60)
	for _, d := range []time.Duration{1500 * time.Microsecond, 2500 * time.Microsecond} {
		sp := m.StartSpan("server.latency.label")
		time.Sleep(d)
		sp.End()
	}
	want := m.Snapshot()
	var buf bytes.Buffer
	if err := m.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := parseObsText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["server.cache.hits"] != 7 || got.Gauges["lattice.linkcovers.workers"] != 2 {
		t.Errorf("counters/gauges: %v %v", got.Counters, got.Gauges)
	}
	if h := got.Hists["lattice.concepts"]; h.Count != 2 || h.Sum != 100 || h.Duration {
		t.Errorf("value histogram: %+v", h)
	}
	w, g := want.Hists["server.latency.label"], got.Hists["server.latency.label"]
	if !g.Duration || g.Count != 2 || absDiff(g.Sum, w.Sum) > int64(time.Microsecond) {
		t.Errorf("span: parsed %+v, registry %+v", g, w)
	}
}

// TestCPUTime checks that both ways of reading a process's CPU time grow
// with work done.
func TestCPUTime(t *testing.T) {
	for name, read := range map[string]func(int) (time.Duration, error){"getrusage": cpuTime, "schedstat": threadsCPU} {
		before, err := read(os.Getpid())
		if err != nil {
			t.Fatal(name, err)
		}
		x := 0
		for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
			x++
		}
		after, err := read(os.Getpid())
		if err != nil {
			t.Fatal(name, err)
		}
		if d := after - before; d < 50*time.Millisecond || d > time.Second {
			t.Errorf("%s: 100 ms of busy work, CPU time grew %v (x=%d)", name, d, x)
		}
	}
}

// TestEndToEndNames checks that a run reports exactly the end-to-end
// metrics BENCHMARK.json names, with their units.
func TestEndToEndNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	got := newReport("x").endToEnd()
	if len(got) != len(b.EndToEnd) {
		t.Errorf("%d end-to-end metrics, BENCHMARK.json names %d", len(got), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("metric %s (%s): reported %+v, present %v", m.Name, m.Unit, g, ok)
		}
	}
}

func absDiff(a, b int64) int64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestLoopingFA checks the streaming Stdio specification: back-to-back
// correct instances never violate, and a faulty one does.
func TestLoopingFA(t *testing.T) {
	sim := loopingFA(specs.Stdio().FA).Sim()
	feed := func(events ...string) int {
		c := stream.New(sim, stream.Config{})
		for _, e := range events {
			if _, _, err := c.Feed(trace.ParseEvents("", e).Events[0]); err != nil {
				t.Fatal(err)
			}
		}
		return c.Violations()
	}
	good := []string{"X = fopen()", "fread(X)", "fclose(X)", "X = popen()", "pclose(X)", "X = fopen()", "fclose(X)"}
	if n := feed(good...); n != 0 {
		t.Errorf("back-to-back correct instances: %d violations", n)
	}
	if n := feed("X = popen()", "fclose(X)", "X = fopen()", "fclose(X)"); n != 1 {
		t.Errorf("one pipe closed with fclose: %d violations, want 1", n)
	}
}

// TestWorkloadsSmoke runs every workload briefly, traced and untraced,
// and requires correct results carrying every metric.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cabled and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cabled")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/cabled").CombinedOutput(); err != nil {
		t.Fatalf("build cabled: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 1, trace: traced, cabled: bin, tmp: dir, root: ".."}
			rep, err := workloads[name](o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := rep.result(traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					name, traced, res.Correct, res.Attempted, res.Failed, rep.tally.errs)
			}
			want := len(perLayer)
			if !traced {
				want = len(rep.endToEnd())
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), want)
			}
			if !traced {
				for k, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, m.Value)
					}
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "cabled-snap-*")); len(left) > 0 {
		t.Errorf("snapshot dirs left behind: %v", left)
	}
}
