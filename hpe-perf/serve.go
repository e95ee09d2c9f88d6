package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"hpe"
	"hpe/internal/runspec"
	"hpe/internal/server"
)

// spanHeader carries the client span's handle to the handler wrapper, so a
// server-side span can name its parent. Only traced passes send it.
const spanHeader = "X-Hpe-Perf-Span"

// spanHandler wraps a handler tree and records one span per request while a
// tracer is installed. Untraced it costs one atomic load.
type spanHandler struct {
	next http.Handler
	name string
	tr   atomic.Pointer[tracer]
	// parent, when set, names the parent span instead of the header (for
	// backends, whose requests come from the coordinator).
	parent func() int
	// last is the handle of the most recent span.
	last atomic.Int64
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent := -1
	if h.parent != nil {
		parent = h.parent()
	} else if v := r.Header.Get(spanHeader); v != "" {
		parent, _ = strconv.Atoi(v)
	}
	s := tr.begin(h.name, r.URL.Path, parent)
	h.last.Store(int64(s))
	h.next.ServeHTTP(w, r)
	tr.end(s)
}

// httpServer serves a handler on a loopback port until stop.
type httpServer struct {
	hs   *http.Server
	url  string
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *httpServer) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) // closes the listener at once; an error only means connections outlived the timeout
	<-s.done
}

// hped is one in-process hped: the serving core behind a span wrapper on a
// loopback listener.
type hped struct {
	srv  *server.Server
	wrap *spanHandler
	http *httpServer
}

func startHped(name string) (*hped, error) {
	srv := server.New(server.Config{}) // the daemon's defaults
	w := &spanHandler{next: srv.Handler(), name: name}
	hs, err := serve(w)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &hped{srv: srv, wrap: w, http: hs}, nil
}

func (h *hped) stop() {
	h.http.stop()
	h.srv.Close()
}

// newClient returns a keep-alive client capped at conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// senders is the number of sending goroutines and connections: nproc, at
// most 2, because the load generator shares the host with the server.
func senders() int { return max(1, min(2, runtime.NumCPU())) }

// do sends one request and reads the whole answer.
func do(c *http.Client, method, url string, body []byte, hdr http.Header) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	return doReq(c, req)
}

func doReq(c *http.Client, req *http.Request) (int, http.Header, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// scrape reads a Prometheus exposition into series → value; a bare metric
// name also maps to the sum of its labelled series.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	code, _, body, err := do(c, http.MethodGet, base+"/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series := line[:i]
		out[series] = v
		if j := strings.IndexByte(series, '{'); j >= 0 {
			out[series[:j]] += v
		}
	}
	return out, sc.Err()
}

// expectedRunBody is the /v1/runs body hped must serve for sp: a
// server.RunResponse over an in-process hpe.Run with the daemon's metrics
// probe attached.
func expectedRunBody(env *simEnv, sp runspec.Spec) ([]byte, error) {
	c, err := sp.Canonicalize()
	if err != nil {
		return nil, err
	}
	res, err := hpe.Run(c, hpe.WithProbe(hpe.NewMetricsProbe()), hpe.WithRunEnv(env.env()))
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(server.RunResponse{ID: c.ID(), Request: c, Result: res})
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// --- open-loop load generation -------------------------------------------

// Request classes.
const (
	classHit  = iota // a warmed spec: must be answered from the cache
	classCold        // a never-seen spec: simulated
	classDup         // a repeat of a cold spec sent while it may still run
)

// request is one scheduled request of an open-loop schedule.
type request struct {
	due    time.Duration // offset from the schedule's start
	method string
	path   string
	body   []byte
	class  int
	key    int // hit: warm spec index; cold/dup: cold spec index
	rung   int
}

// sample is what happened to one request. Times are offsets from the
// schedule's start.
type sample struct {
	sent, done time.Duration
	backlog    int
	status     int
	source     string
	bodyOK     bool // the caller's verdict on the answer's body
	err        error
	ttfb       time.Duration
	reused     bool
}

func (s sample) latency(r request) time.Duration { return s.done - r.due }

// drive plays an open-loop schedule over senders() goroutines. Each
// goroutine takes the next request in due order, waits until it is due,
// sends it and reads the answer; a request's latency runs from when it was
// due, so a stall delays, and is charged to, every request behind it.
// verify, called on the sending goroutine, judges each answer's body.
//
// It also returns what each rung of the schedule (rungs follow each other in
// due order) cost the process in CPU time, and the part of that the senders
// spent waiting for requests to fall due. That pacing is the generator's,
// not the program's, and callers leave it out of the cost metric.
func drive(c *http.Client, base string, reqs []request, tr *tracer, verify func(i int, body []byte) bool) ([]sample, []rungCost) {
	out := make([]sample, len(reqs))
	rungs := reqs[len(reqs)-1].rung + 1
	// marks[k] is the process CPU time when the first request of rung k
	// was taken, marks[rungs] the time at the end.
	marks := make([]atomic.Int64, rungs+1)
	pacing := make([]atomic.Int64, rungs)
	var next atomic.Int64
	marks[0].Store(int64(cpuTime()))
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < senders(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				if i > 0 && r.rung != reqs[i-1].rung {
					marks[r.rung].Store(int64(cpuTime()))
				}
				pacing[r.rung].Add(int64(waitUntil(start.Add(r.due))))
				s := &out[i]
				s.sent = time.Since(start)
				s.backlog = max(0, sort.Search(len(reqs), func(k int) bool { return reqs[k].due > s.sent })-(i+1))
				body, err := send(c, base, r, s, tr, i, start)
				s.err = err
				if err == nil {
					s.bodyOK = verify(i, body)
				}
				s.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	marks[rungs].Store(int64(cpuTime()))
	for k := rungs - 1; k > 0; k-- {
		if marks[k].Load() == 0 { // a rung without requests
			marks[k].Store(marks[k+1].Load())
		}
	}
	costs := make([]rungCost, rungs)
	for k := range costs {
		costs[k] = rungCost{cpu: time.Duration(marks[k+1].Load() - marks[k].Load()), pacing: time.Duration(pacing[k].Load())}
	}
	return out, costs
}

// rungCost is what one rung of a schedule cost the process in CPU time, and
// the part of that the generator spent pacing.
type rungCost struct{ cpu, pacing time.Duration }

// waitUntil returns at t. Runtime timers fire up to a millisecond late on
// Linux (the netpoller waits in whole milliseconds), which would swamp
// sub-millisecond latencies, so the wait is one nanosleep of the OS thread.
// A nanosleep overshoots by tens of µs, so the last stretch before t is
// spun.
//
// One sleep, not a series of short ones: each blocking system call lets
// the runtime's monitor thread hand the sender's P to another thread, and
// that churn is CPU time no sender thread is charged with. Measured idle
// on a 2-vCPU host at 2,200 waits/s over two goroutines, 100 µs steps cost
// 120 µs of process CPU per wait, of which the waiting threads' own clocks
// saw 60; one sleep cost 56, of which they saw 46. Lateness was no worse
// (p99 4.6 ms against 6.3 ms, both set by the host).
//
// It returns the CPU time the sender's thread spent waiting. A goroutine
// can resume on another thread after a system call, so the time is read
// from the thread's own clock before and after the sleep and after the
// spin, and a stretch over which the thread changed charges nothing.
func waitUntil(t time.Time) time.Duration {
	const spin = 80 * time.Microsecond
	var used time.Duration
	tid, c0 := syscall.Gettid(), threadCPU()
	account := func() {
		tid1, c1 := syscall.Gettid(), threadCPU()
		if tid1 == tid && c1 > c0 {
			used += c1 - c0
		}
		tid, c0 = tid1, c1
	}
	if d := time.Until(t) - spin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
		account()
	}
	for time.Now().Before(t) {
	}
	account()
	return used
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func send(c *http.Client, base string, r *request, s *sample, tr *tracer, i int, start time.Time) ([]byte, error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, base+r.path, rd)
	if err != nil {
		return nil, err
	}
	h := -1
	if tr != nil {
		h = tr.begin("request", strconv.Itoa(i), -1)
		req.Header.Set(spanHeader, strconv.Itoa(h))
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn:              func(ci httptrace.GotConnInfo) { s.reused = ci.Reused },
			GotFirstResponseByte: func() { s.ttfb = time.Since(start) - s.sent },
		}))
	}
	code, hdr, body, err := doReq(c, req)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	s.status = code
	s.source = hdr.Get("X-Hped-Source")
	return body, nil
}

// rungStats summarizes one rate step of a schedule.
type rungStats struct {
	rate      float64 // offered, requests/s
	achieved  float64 // answered, requests/s
	p50, p99  float64 // ms, from due
	p99w      float64 // ms, windowedQuantile's p99
	lateP99   float64 // ms the generator sent late
	backlog   int     // largest backlog seen
	growing   bool    // backlog in the last quarter above the first quarter's
	failed    int
	meetsSLO  bool
	latencies []float64
	service   []float64 // ms from sent to answered
}

// sloP99 is the latency limit of hped-hot's max_krps_at_slo, in ms.
const sloP99 = 1.0

func summarize(reqs []request, out []sample, rung int, rate float64, include func(int) bool) rungStats {
	st := rungStats{rate: rate}
	var late []float64
	var idx []int
	for i := range reqs {
		if reqs[i].rung == rung && (include == nil || include(i)) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return st
	}
	var first, last time.Duration = out[idx[0]].sent, 0
	for _, i := range idx {
		s := out[i]
		if s.err != nil || s.status != http.StatusOK {
			st.failed++
		}
		st.latencies = append(st.latencies, ms(s.latency(reqs[i])))
		st.service = append(st.service, ms(s.done-s.sent))
		late = append(late, ms(s.sent-reqs[i].due))
		st.backlog = max(st.backlog, s.backlog)
		first, last = min(first, s.sent), max(last, s.done)
	}
	q := len(idx) / 4
	var head, tail float64
	for k := 0; k < q; k++ {
		head += float64(out[idx[k]].backlog)
		tail += float64(out[idx[len(idx)-1-k]].backlog)
	}
	st.growing = q > 0 && tail/float64(q) > head/float64(q)+2
	st.p50 = median(st.latencies)
	st.p99 = quantile(st.latencies, 0.99)
	st.p99w = windowedQuantile(st.latencies, 0.99)
	st.lateP99 = quantile(late, 0.99)
	if last > first {
		st.achieved = float64(len(idx)) / (last - first).Seconds()
	}
	st.meetsSLO = st.failed == 0 && !st.growing && st.p99 <= sloP99
	return st
}

// windowSamples is the window size of windowedQuantile: a p99 over it has
// ten samples beyond it.
const windowSamples = 1000

// windowedQuantile is the median, over consecutive windows of windowSamples
// requests, of each window's q-quantile. One stall of the shared host (a
// descheduled vCPU) then moves one window, not the whole rung's tail. It is
// printed beside the plain p99, under its own name, because by construction
// it leaves such stalls out.
func windowedQuantile(xs []float64, q float64) float64 {
	if len(xs) < 2*windowSamples {
		return quantile(xs, q)
	}
	var per []float64
	for i := 0; i+windowSamples <= len(xs); i += windowSamples {
		per = append(per, quantile(xs[i:i+windowSamples], q))
	}
	return median(per)
}

// stratified calls add once at a random time in each 1/rate slot of
// [0, d): a fixed number of arrivals per run, at random times. The cold
// stream uses it because each arrival costs a simulation, and a Poisson
// count would move the run's total work by several percent.
func stratified(rng *rand.Rand, d time.Duration, rate float64, add func(time.Duration)) {
	slot := time.Duration(float64(time.Second) / rate)
	for t := time.Duration(0); t+slot <= d; t += slot {
		add(t + time.Duration(rng.Int63n(int64(slot))))
	}
}

// poisson appends arrivals at rate per second over [from, from+d).
func poisson(rng *rand.Rand, from, d time.Duration, rate float64, add func(time.Duration)) {
	t := from
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= from+d {
			return
		}
		add(t)
	}
}
