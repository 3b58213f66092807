package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/concept"
	"repro/internal/obs"
	"repro/internal/trace"
)

// layerMetric is one per-layer metric of a traced run.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric in report order. A traced run
// prints all of them; a layer the workload does not exercise reads 0 and
// shows as n/a in the human-readable table. Times are per pass unless the
// README says otherwise.
var perLayer = []layerMetric{
	{"trace.read_ms", "ms"},
	{"trace.read_mb_per_s", "MB/s"},
	{"trace.read_allocs", "count"},
	{"learn.learn_ms", "ms"},
	{"learn.ref_useful_ratio", "ratio"},
	{"fa.executedall_ms", "ms"},
	{"fa.compile_ms", "ms"},
	{"fa.memo_hit_ratio", "ratio"},
	{"concept.context_ms", "ms"},
	{"concept.build_ms", "ms"},
	{"concept.link_covers_ms", "ms"},
	{"concept.godin_ms", "ms"},
	{"concept.concepts", "count"},
	{"concept.linkcovers_worker_util_pct", "%"},
	{"concept.incr_add_ms", "ms"},
	{"concept.add_vs_build_ratio", "ratio"},
	{"wellformed.check_ms", "ms"},
	{"cable.session_ms", "ms"},
	{"strategy.apply_ms", "ms"},
	{"server.create_session.client_p50_ms", "ms"},
	{"server.create_session.server_p50_ms", "ms"},
	{"server.create_session.transport_ms", "ms"},
	{"server.create_session.req_bytes", "bytes"},
	{"server.create_session.resp_bytes", "bytes"},
	{"server.list_concepts.client_p50_ms", "ms"},
	{"server.list_concepts.server_p50_ms", "ms"},
	{"server.list_concepts.transport_ms", "ms"},
	{"server.list_concepts.req_bytes", "bytes"},
	{"server.list_concepts.resp_bytes", "bytes"},
	{"server.label.client_p50_ms", "ms"},
	{"server.label.server_p50_ms", "ms"},
	{"server.label.transport_ms", "ms"},
	{"server.label.req_bytes", "bytes"},
	{"server.label.resp_bytes", "bytes"},
	{"server.add_traces.client_p50_ms", "ms"},
	{"server.add_traces.server_p50_ms", "ms"},
	{"server.add_traces.transport_ms", "ms"},
	{"server.add_traces.req_bytes", "bytes"},
	{"server.add_traces.resp_bytes", "bytes"},
	{"server.stream_events.client_p50_ms", "ms"},
	{"server.stream_events.server_p50_ms", "ms"},
	{"server.stream_events.transport_ms", "ms"},
	{"server.stream_events.req_bytes", "bytes"},
	{"server.stream_events.resp_bytes", "bytes"},
	{"server.cache.hit_ratio", "ratio"},
	{"persist.wal_bytes_per_op", "bytes"},
	{"persist.snapshot_write_ms", "ms"},
	{"stream.events", "count"},
	{"stream.violation_ratio", "ratio"},
	{"stream.fold_ms", "ms"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.alloc_bytes_per_pass", "bytes"},
	{"unattributed_ms", "ms"},
	{"trace_overhead_pct", "%"},
}

// routes are the cabled routes whose per-route layer metrics are reported.
var routes = []string{"create_session", "list_concepts", "label", "add_traces", "stream_events"}

// layerClock sums the wall time a pass spends in each layer call the
// benchmark makes. One clock belongs to one goroutine.
type layerClock struct {
	sums map[string]time.Duration
	n    map[string]int
}

func newLayerClock() *layerClock {
	return &layerClock{sums: map[string]time.Duration{}, n: map[string]int{}}
}

// since charges the time elapsed from start to layer and returns now, so
// consecutive calls read as t = c.since("x", t).
func (c *layerClock) since(layer string, start time.Time) time.Time {
	now := time.Now()
	c.sums[layer] += now.Sub(start)
	c.n[layer]++
	return now
}

// total sums every layer's time.
func (c *layerClock) total() time.Duration {
	var t time.Duration
	for _, d := range c.sums {
		t += d
	}
	return t
}

// perPass is a layer's mean milliseconds per pass.
func (c *layerClock) perPass(layer string, passes int) float64 {
	if passes == 0 {
		return 0
	}
	return ms(c.sums[layer]) / float64(passes)
}

// perCall is a layer's mean milliseconds per call.
func (c *layerClock) perCall(layer string) float64 {
	if c.n[layer] == 0 {
		return 0
	}
	return ms(c.sums[layer]) / float64(c.n[layer])
}

// spanMs returns a span's summed milliseconds from an obs snapshot.
func spanMs(s obs.Snapshot, name string) float64 {
	return float64(s.Hists[name].Sum) / 1e6
}

// spanMeanMs returns a span's mean milliseconds from an obs snapshot.
func spanMeanMs(s obs.Snapshot, name string) float64 {
	return float64(s.Hists[name].Mean()) / 1e6
}

// memoHitRatio is the share of requested trace simulations that a memo
// answered: ExecutedShared hits plus the duplicates ExecutedAll folds into
// their class representative, over every simulation asked for.
func memoHitRatio(s obs.Snapshot) float64 {
	hits := s.Counters["fa.executed.memo_hits"]
	folded := s.Counters["fa.executedall.traces"] - s.Counters["fa.executedall.classes"]
	asked := hits + s.Hists["fa.executed"].Count + s.Counters["fa.executedall.traces"]
	if asked == 0 {
		return 0
	}
	return float64(hits+folded) / float64(asked)
}

// parseObsText reads the text snapshot cabled serves at /v1/metrics back
// into an obs.Snapshot. Span values are durations, which the text renders
// rounded to a microsecond (a millisecond from one second up).
func parseObsText(r io.Reader) (obs.Snapshot, error) {
	s := obs.Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Hists: map[string]obs.HistStat{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || strings.HasPrefix(f[0], "#") {
			continue
		}
		switch f[0] {
		case "counter", "gauge":
			v, err := strconv.ParseInt(f[2], 10, 64)
			if err != nil {
				return s, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
			}
			if f[0] == "counter" {
				s.Counters[f[1]] = v
			} else {
				s.Gauges[f[1]] = v
			}
		case "span", "hist":
			st := obs.HistStat{Duration: f[0] == "span"}
			for _, kv := range f[2:] {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					k, v, ok = strings.Cut(kv, "~")
				}
				if !ok {
					return s, fmt.Errorf("metrics line %q: field %q", sc.Text(), kv)
				}
				n, err := parseObsValue(v, st.Duration && k != "count")
				if err != nil {
					return s, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
				}
				switch k {
				case "count":
					st.Count = n
				case "sum":
					st.Sum = n
				case "p50":
					st.P50 = n
				}
			}
			s.Hists[f[1]] = st
		}
	}
	return s, sc.Err()
}

func parseObsValue(v string, duration bool) (int64, error) {
	if duration {
		d, err := time.ParseDuration(v)
		return int64(d), err
	}
	return strconv.ParseInt(v, 10, 64)
}

// runtimeSampler reads the benchmark process's own GC and allocation
// totals, for the batch workloads whose system under test is in-process.
type runtimeSampler struct {
	samples []metrics.Sample
}

func newRuntimeSampler() *runtimeSampler {
	return &runtimeSampler{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

// runtimeTotals is one reading of the sampler.
type runtimeTotals struct {
	gcCPU, totalCPU float64
	cycles          uint64
	allocBytes      uint64
}

func (r *runtimeSampler) read() runtimeTotals {
	metrics.Read(r.samples[:4])
	val := func(i int) metrics.Value { return r.samples[i].Value }
	return runtimeTotals{
		gcCPU:      val(0).Float64(),
		totalCPU:   val(1).Float64(),
		cycles:     val(2).Uint64(),
		allocBytes: val(3).Uint64(),
	}
}

// objects returns the heap objects allocated so far.
func (r *runtimeSampler) objects() uint64 {
	metrics.Read(r.samples[4:5])
	return r.samples[4].Value.Uint64()
}

// setRuntimeLayers fills the runtime metrics of an in-process traced phase
// from sampler readings taken at its start and end.
func setRuntimeLayers(layers map[string]float64, a, b runtimeTotals, p phase) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		layers["runtime.gc_cpu_pct"] = 100 * (b.gcCPU - a.gcCPU) / cpu
	}
	layers["runtime.gc_cycles_per_s"] = float64(b.cycles-a.cycles) / p.elapsed.Seconds()
	if n := len(p.passes); n > 0 {
		layers["runtime.alloc_bytes_per_pass"] = float64(b.allocBytes-a.allocBytes) / float64(n)
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev returns the checked-out commit, or "none" outside a git work tree
// (the benchmark also runs from exported source trees).
func gitRev(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and go.mod under root (dot
// directories excluded), so runs from exported trees remain comparable.
func sourceHash(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f) // f lies under root by construction
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// probe measures, in the traced phase only, what the layer clock cannot:
// the heap allocations of trace.Read and the lattice.tables time inside
// builds, which concept.godin_ms leaves out.
type probe struct {
	rt             *runtimeSampler
	reads          int
	readBytes      int64
	readAllocs     uint64
	tablesInBuilds float64 // ms
}

func newProbe() *probe { return &probe{rt: newRuntimeSampler()} }

// readTraces parses trace text, charging the "trace" layer.
func (p *probe) readTraces(clock *layerClock, text []byte) (*trace.Set, error) {
	traced := obs.Default() != nil
	var objs uint64
	if traced {
		objs = p.rt.objects()
	}
	t := time.Now()
	set, err := trace.Read(bytes.NewReader(text))
	clock.since("trace", t)
	if traced {
		p.readAllocs += p.rt.objects() - objs
		p.readBytes += int64(len(text))
		p.reads++
	}
	return set, err
}

// build constructs a lattice, charging the "concept.build" layer.
func (p *probe) build(ctx context.Context, clock *layerClock, fc *concept.Context) (*concept.Lattice, error) {
	m := obs.Default()
	var tables0 float64
	if m != nil {
		tables0 = spanMs(m.Snapshot(), "lattice.tables")
	}
	t := time.Now()
	l, err := concept.BuildCtx(ctx, fc, concept.WithWorkers(0))
	clock.since("concept.build", t)
	if m != nil {
		p.tablesInBuilds += spanMs(m.Snapshot(), "lattice.tables") - tables0
	}
	return l, err
}
