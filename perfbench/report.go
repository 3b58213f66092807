package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tally counts attempted and failed operations across client goroutines.
// An operation is one request to cabled or one correctness check of the
// batch pipeline; a failure is a non-2xx response or a failed check.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	errs      []string // the first few failures, for the report
}

// op records one operation and returns err unchanged.
func (t *tally) op(err error) error {
	t.attempted.Add(1)
	if err != nil {
		t.failed.Add(1)
		t.mu.Lock()
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		t.mu.Unlock()
	}
	return err
}

// phase is what one closed-loop phase measured.
type phase struct {
	passes  []float64 // wall time of each pass, ms
	events  int64     // trace events pushed through the system
	elapsed time.Duration
	cpu     time.Duration // CPU time of the system under test
}

// report is everything a workload run measured.
type report struct {
	workload  string
	setup     []float64 // CPU seconds, one per set-up repetition
	setupWall []float64 // wall seconds, one per set-up repetition
	plain     phase     // untraced phase: the end-to-end metrics
	traced    phase     // traced phase (traced runs only)
	peakRSSMB float64
	tally     *tally
	layers    map[string]float64 // per-layer metrics (traced runs only)
	extra     []figure           // workload figures printed but not gated
}

// figure is one named, unit-tagged number of the human-readable report.
type figure struct {
	name  string
	value float64
	unit  string
}

func newReport(workload string) *report {
	return &report{workload: workload, tally: &tally{}, layers: map[string]float64{}}
}

// setupReps is how many times a workload sets up; the median is setup_s.
const setupReps = 9

// timeSetup runs f setupReps times and records the CPU time of each: the
// benchmark's, plus that of the cabled child f started, if any. The median
// is setup_s, so slow repetitions do not move it; CPU time rather than wall
// time, for the reason endToEnd gives. Between repetitions, untimed, reset
// (when non-nil) releases what the previous one made, and a garbage
// collection starts every repetition from the same heap.
func (r *report) timeSetup(f func() (*child, error), reset func() error) error {
	self := os.Getpid()
	for i := 0; i < setupReps; i++ {
		if i > 0 && reset != nil {
			if err := reset(); err != nil {
				return err
			}
		}
		runtime.GC()
		start := time.Now()
		cpu0, err := cpuTime(self)
		if err != nil {
			return err
		}
		ch, err := f()
		if err != nil {
			return err
		}
		cpu1, err := cpuTime(self)
		if err != nil {
			return err
		}
		used := cpu1 - cpu0
		if ch != nil {
			c, err := cpuTime(ch.cmd.Process.Pid)
			if err != nil {
				return err
			}
			used += c
		}
		r.setup = append(r.setup, used.Seconds())
		r.setupWall = append(r.setupWall, time.Since(start).Seconds())
	}
	return nil
}

// endToEnd returns the end-to-end metrics of the untraced phase. The
// pass's cost is its CPU time, not its wall time: on a shared virtual
// machine the host's steal time moves wall times by up to 2x from run to
// run, and CPU time about half as much. Wall times are printed, not gated.
func (r *report) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":     {median(sorted(r.setup)), "s"},
		"pass_cpu_ms": {r.plain.cpuPerPass(), "ms"},
		"peak_rss_mb": {r.peakRSSMB, "MB"},
	}
}

// cpuPerPass is the system under test's CPU time per pass sample, ms.
func (p phase) cpuPerPass() float64 {
	if len(p.passes) == 0 {
		return 0
	}
	return ms(p.cpu) / float64(len(p.passes))
}

// result assembles the last output line.
func (r *report) result(traced bool) result {
	res := result{
		Attempted: r.tally.attempted.Load(),
		Failed:    r.tally.failed.Load(),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if !traced {
		res.Metrics = r.endToEnd()
		return res
	}
	res.Metrics = map[string]metric{}
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{r.layers[l.name], l.unit}
	}
	return res
}

// print writes the human-readable report that precedes the result line.
func (r *report) print(w io.Writer, o options) {
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\n", r.workload, o.seed, o.seconds, o.trace)
	passes := sorted(r.plain.passes)
	t := tailOf(passes)
	fmt.Fprintf(w, "  passes %d  p50 %.3f ms  tail p%.2f %.3f ms (%d samples beyond)  cpu %.3f ms/pass\n",
		len(passes), median(passes), t.pct, t.value, t.beyond, r.plain.cpuPerPass())
	fmt.Fprintf(w, "  setup cpu  %s s\n", joinFloats(r.setup, "%.4f"))
	fmt.Fprintf(w, "  setup wall %s s\n", joinFloats(r.setupWall, "%.4f"))
	errRate := 0.0
	if a := r.tally.attempted.Load(); a > 0 {
		errRate = float64(r.tally.failed.Load()) / float64(a)
	}
	figs := append([]figure{
		{"error_rate", errRate, "ratio"},
		{"pass_p50_ms", median(passes), "ms"},
		{"pass_tail_ms", t.value, "ms"},
		{"events_per_s", float64(r.plain.events) / r.plain.elapsed.Seconds(), "1/s"},
	}, r.extra...)
	for _, f := range figs {
		fmt.Fprintf(w, "  %-22s %14.4f %s\n", f.name, f.value, f.unit)
	}
	for _, e := range r.tally.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	if !o.trace {
		return
	}
	fmt.Fprintf(w, "  per-layer (traced phase, %d passes):\n", len(r.traced.passes))
	for _, l := range perLayer {
		v, ok := r.layers[l.name]
		if !ok {
			fmt.Fprintf(w, "    %-40s %14s\n", l.name, "n/a")
			continue
		}
		fmt.Fprintf(w, "    %-40s %14.4f %s\n", l.name, v, l.unit)
	}
}

// finishTraced derives the two whole-run layer metrics: time per pass no
// layer accounts for, and the traced phase's slowdown over the untraced one.
func (r *report) finishTraced(layerSumMs float64) {
	tp := median(sorted(r.traced.passes))
	pp := median(sorted(r.plain.passes))
	r.layers["unattributed_ms"] = mean(r.traced.passes) - layerSumMs
	if pp > 0 {
		r.layers["trace_overhead_pct"] = 100 * (tp - pp) / pp
	}
}

// closedLoop runs clients goroutines that each call pass back to back until
// d has elapsed, and returns once all of them have finished. Each pass
// reports how many trace events it pushed through the system, and whether
// its wall time is a pass sample (upkeep between passes is not). The phase
// also records the CPU time process sut spent while it ran.
func closedLoop(sut, clients int, d time.Duration, pass func(client int) (events int64, sample bool)) (phase, error) {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		out    phase
		start  = time.Now()
		expiry = start.Add(d)
	)
	cpu0, err := cpuTime(sut)
	if err != nil {
		return out, err
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []float64
			var events int64
			for time.Now().Before(expiry) {
				t0 := time.Now()
				n, sample := pass(c)
				if sample {
					local = append(local, ms(time.Since(t0)))
				}
				events += n
			}
			mu.Lock()
			out.passes = append(out.passes, local...)
			out.events += events
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	cpu1, err := cpuTime(sut)
	out.cpu = cpu1 - cpu0
	return out, err
}

// cpuTime reads the CPU time a process has used, all its threads together.
// On a virtual machine the kernel leaves out the time the host ran other
// guests on the CPU (steal time), which wall times include. The benchmark's
// own time comes from getrusage; a child's is the sum of its threads'
// run times in /proc/<pid>/task/*/schedstat, in nanoseconds (a thread that
// has exited drops out of the sum; Go programs keep their threads).
func cpuTime(pid int) (time.Duration, error) {
	if pid == os.Getpid() {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
	}
	return threadsCPU(pid)
}

// threadsCPU sums the run time of every thread of process pid.
func threadsCPU(pid int) (time.Duration, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	if len(files) == 0 {
		return 0, fmt.Errorf("no threads of process %d", pid)
	}
	var sum time.Duration
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited since the glob
		}
		var ns int64
		if _, err := fmt.Sscan(string(data), &ns); err != nil {
			return 0, fmt.Errorf("parse %s: %w", f, err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// percentile interpolates the q-quantile (0 ≤ q ≤ 1) of sorted values.
func percentile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(s []float64) float64 { return percentile(s, 0.5) }

// tail is the highest percentile, at most p90, that has at least ten
// samples beyond it. The p90 cap keeps the tail of long runs from resting
// on a handful of samples, which a shared host's stalls make unsteady.
type tail struct {
	value  float64
	pct    float64
	beyond int
}

// tailOf picks the tail sample of sorted values. Below eleven samples no
// percentile has ten beyond it; the maximum stands in and beyond says so.
func tailOf(s []float64) tail {
	n := len(s)
	if n == 0 {
		return tail{}
	}
	idx := n - 11
	if p90 := int(math.Ceil(0.90*float64(n))) - 1; p90 < idx {
		idx = p90
	}
	if idx < 0 {
		idx = n - 1
	}
	return tail{value: s[idx], pct: 100 * float64(idx+1) / float64(n), beyond: n - 1 - idx}
}

func joinFloats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

// peakRSSMB reads a process's VmHWM from /proc.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS frees the garbage set-up left behind, returns it to the
// operating system and restarts the process's VmHWM at its current RSS, so
// selfPeakRSS covers only what runs after it.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfPeakRSS records the benchmark process's own peak RSS, the system
// under test of the batch workloads.
func (r *report) selfPeakRSS() error {
	v, err := peakRSSMB(os.Getpid())
	r.peakRSSMB = v
	return err
}

// fingerprint identifies the machine, toolchain and sources of a run.
func fingerprint(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"git_rev":    gitRev(o.root),
		"src_sha256": sourceHash(o.root),
	}
}
