package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// child is a cabled process serving on a loopback port, persisting to a
// temporary snapshot directory the benchmark owns.
type child struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	dir    string // -snapshot-dir
	rssMB  float64
	ioDone chan struct{} // closed once stderr reaches EOF

	mu      sync.Mutex
	gcAt    []time.Time // arrival of each gctrace line
	gcPct   float64     // latest gctrace GC CPU share
	stopped bool        // cabled reported a clean stop
	last    []string    // recent non-gctrace stderr lines, for errors
}

var gcLine = regexp.MustCompile(`^gc \d+ @[0-9.]+s (\d+)%:`)

// startCabled launches cabled with default flags, a fresh -snapshot-dir and
// a kernel-chosen loopback port. A traced child also collects metrics
// (-metrics) and reports every GC cycle (GODEBUG=gctrace=1).
func startCabled(o options, traced bool) (*child, error) {
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.tmp, "cabled-snap-")
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:0", "-snapshot-dir", dir}
	if traced {
		args = append(args, "-metrics")
	}
	cmd := exec.Command(o.cabled, args...)
	cmd.Env = os.Environ()
	if traced {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start cabled: %w", err)
	}
	c := &child{cmd: cmd, dir: dir, ioDone: make(chan struct{})}
	ready := make(chan string, 1)
	go c.readStderr(stderr, ready)
	select {
	case addr := <-ready:
		c.base = "http://" + addr
		if err = c.awaitServing(); err == nil {
			return c, nil
		}
	case <-c.ioDone:
		err = errors.New("cabled exited before listening")
	case <-time.After(30 * time.Second):
		err = errors.New("cabled did not listen within 30s")
	}
	cmd.Process.Kill()
	<-c.ioDone
	cmd.Wait()
	os.RemoveAll(dir)
	return nil, fmt.Errorf("%w: %s", err, c.tail())
}

// awaitServing polls the child until it answers HTTP. cabled prints its
// address before it installs its signal handlers, and answers only after,
// so a child that answers can be stopped cleanly with SIGTERM.
func (c *child) awaitServing() error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(c.base + "/v1/sessions")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cabled does not answer GET /v1/sessions: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// readStderr scans the child's standard error until EOF: the listen
// address, gctrace lines and the final clean-stop line.
func (c *child) readStderr(r io.Reader, ready chan<- string) {
	defer close(c.ioDone)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if m := gcLine.FindStringSubmatch(line); m != nil {
			pct, _ := strconv.ParseFloat(m[1], 64) // the regexp admits only digits
			c.mu.Lock()
			c.gcAt = append(c.gcAt, time.Now())
			c.gcPct = pct
			c.mu.Unlock()
			continue
		}
		if addr, ok := strings.CutPrefix(line, "cabled: listening on "); ok {
			select {
			case ready <- addr:
			default:
			}
		}
		c.mu.Lock()
		if line == "cabled: stopped" {
			c.stopped = true
		}
		if c.last = append(c.last, line); len(c.last) > 8 {
			c.last = c.last[1:]
		}
		c.mu.Unlock()
	}
	io.Copy(io.Discard, r) // a scanner error leaves bytes; drain so the child never blocks
}

func (c *child) tail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.last, " | ")
}

// gcSince returns the GC cycles reported since t and the latest
// cumulative GC CPU share.
func (c *child) gcSince(t time.Time) (cycles int, pct float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, at := range c.gcAt {
		if !at.Before(t) {
			cycles++
		}
	}
	return cycles, c.gcPct
}

// stop records the child's peak RSS, sends SIGTERM and requires a clean
// exit, then removes the snapshot dir. A child that does not exit, exits
// non-zero or leaves its dir behind is an error.
func (c *child) stop() error {
	rss, rssErr := peakRSSMB(c.cmd.Process.Pid)
	c.rssMB = rss
	var errs []error
	if rssErr != nil {
		errs = append(errs, rssErr)
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		errs = append(errs, fmt.Errorf("signal cabled: %w", err))
	}
	exited := make(chan error, 1)
	go func() {
		<-c.ioDone
		exited <- c.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			errs = append(errs, fmt.Errorf("cabled exit: %w: %s", err, c.tail()))
		}
	case <-time.After(60 * time.Second):
		c.cmd.Process.Kill()
		<-exited
		errs = append(errs, errors.New("cabled did not exit within 60s of SIGTERM"))
	}
	c.mu.Lock()
	stopped := c.stopped
	c.mu.Unlock()
	if !stopped {
		errs = append(errs, fmt.Errorf("cabled exited without a clean stop: %s", c.tail()))
	}
	if err := os.RemoveAll(c.dir); err != nil {
		errs = append(errs, err)
	}
	if _, err := os.Stat(c.dir); !errors.Is(err, fs.ErrNotExist) {
		errs = append(errs, fmt.Errorf("snapshot dir %s left behind", c.dir))
	}
	return errors.Join(errs...)
}

// metrics fetches and parses the child's /v1/metrics snapshot.
func (c *child) metrics() (obs.Snapshot, error) {
	hc := &http.Client{Timeout: time.Minute}
	resp, err := hc.Get(c.base + "/v1/metrics")
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.Snapshot{}, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	return parseObsText(resp.Body)
}

// newTransport returns the keep-alive transport the clients of one child
// share; each closed-loop client holds at most one connection at a time.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
}

// routeStat is what one client measured on one route.
type routeStat struct {
	lat                 []float64 // ms
	reqBytes, respBytes int64
}

// client is one closed-loop HTTP client of the child. Its statistics are
// its own; merge them once the loop has ended.
type client struct {
	base   string
	hc     *http.Client
	tl     *tally
	routes map[string]*routeStat
}

func newClient(base string, tr *http.Transport, tl *tally) *client {
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}, tl: tl, routes: map[string]*routeStat{}}
}

// call sends one request, records its latency and sizes under route, and
// decodes a 2xx reply into out (when non-nil). A non-2xx reply is a failed
// operation.
func (c *client) call(route, method, path string, body []byte, out any) error {
	return c.tl.op(c.do(route, method, path, body, out))
}

func (c *client) do(route, method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := ms(time.Since(start))
	st := c.routes[route]
	if st == nil {
		st = &routeStat{}
		c.routes[route] = st
	}
	st.lat = append(st.lat, d)
	st.reqBytes += int64(len(body))
	st.respBytes += int64(len(data))
	if err != nil {
		return fmt.Errorf("%s %s: read reply: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode reply: %w", method, path, err)
		}
	}
	return nil
}

// mergeClients sums the clients' statistics.
func mergeClients(cs []*client) *client {
	m := &client{routes: map[string]*routeStat{}}
	for _, c := range cs {
		for name, st := range c.routes {
			sum := m.routes[name]
			if sum == nil {
				sum = &routeStat{}
				m.routes[name] = sum
			}
			sum.lat = append(sum.lat, st.lat...)
			sum.reqBytes += st.reqBytes
			sum.respBytes += st.respBytes
		}
	}
	return m
}

// latencies returns the merged latencies of the routes that pick selects.
func (c *client) latencies(pick func(route string) bool) []float64 {
	var out []float64
	for name, st := range c.routes {
		if pick(name) {
			out = append(out, st.lat...)
		}
	}
	return out
}

// httpPhase runs one closed-loop phase against a child with one client
// per goroutine, and returns the phase and the merged client statistics.
func httpPhase(ch *child, clients int, d time.Duration, tl *tally, pass func(c *client, id int) (int64, bool)) (phase, *client, error) {
	tr := newTransport()
	defer tr.CloseIdleConnections()
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(ch.base, tr, tl)
	}
	p, err := closedLoop(ch.cmd.Process.Pid, clients, d, func(id int) (int64, bool) { return pass(cs[id], id) })
	return p, mergeClients(cs), err
}

// setHTTPLayers fills the layer metrics the two HTTP workloads share: per
// route client and server latency, the transport remainder and message
// sizes, the cache, snapshot writes, GC, and the server-side spans of the
// pipeline layers (mean per call). ch is the traced phase's child, start
// the phase's start, m its merged client statistics and snap the child's
// metrics at its end.
func setHTTPLayers(rep *report, ch *child, start time.Time, m *client, snap obs.Snapshot) {
	l := rep.layers
	for _, r := range routes {
		st := m.routes[r]
		if st == nil || len(st.lat) == 0 {
			continue
		}
		n := float64(len(st.lat))
		sv := snap.Hists["server.latency."+r]
		l["server."+r+".client_p50_ms"] = median(sorted(st.lat))
		l["server."+r+".server_p50_ms"] = float64(sv.P50) / 1e6
		l["server."+r+".transport_ms"] = mean(st.lat) - float64(sv.Mean())/1e6
		l["server."+r+".req_bytes"] = float64(st.reqBytes) / n
		l["server."+r+".resp_bytes"] = float64(st.respBytes) / n
	}
	if hits, misses := snap.Counters["server.cache.hits"], snap.Counters["server.cache.misses"]; hits+misses > 0 {
		l["server.cache.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	l["persist.snapshot_write_ms"] = spanMeanMs(snap, "lattice.snapshot.write")
	l["trace.read_ms"] = spanMeanMs(snap, "trace.read")
	l["fa.executedall_ms"] = spanMeanMs(snap, "fa.executedall")
	l["fa.compile_ms"] = spanMeanMs(snap, "fa.compile")
	l["fa.memo_hit_ratio"] = memoHitRatio(snap)
	l["concept.context_ms"] = spanMeanMs(snap, "concept.context")
	build, covers := spanMeanMs(snap, "lattice.build"), spanMeanMs(snap, "lattice.link_covers")
	l["concept.build_ms"] = build
	l["concept.link_covers_ms"] = covers
	l["concept.godin_ms"] = build - covers
	l["concept.concepts"] = float64(snap.Hists["lattice.concepts"].Mean())
	l["concept.linkcovers_worker_util_pct"] = float64(snap.Hists["lattice.linkcovers.worker_util_pct"].Mean())
	add := spanMeanMs(snap, "lattice.incr.add")
	l["concept.incr_add_ms"] = add
	if build > 0 {
		l["concept.add_vs_build_ratio"] = add / build
	}
	l["cable.session_ms"] = spanMeanMs(snap, "cable.session")
	cycles, pct := ch.gcSince(start)
	l["runtime.gc_cpu_pct"] = pct
	l["runtime.gc_cycles_per_s"] = float64(cycles) / rep.traced.elapsed.Seconds()
	var reqMs float64
	for _, d := range m.latencies(func(string) bool { return true }) {
		reqMs += d
	}
	rep.finishTraced(reqMs / float64(len(rep.traced.passes)))
}
