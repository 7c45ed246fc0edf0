package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/load"
)

// serviceTail is the service's lat_tail_ms percentile.
const serviceTail = 0.99

// serviceWarmup is the untimed closed-loop run before measurement, which
// opens the keep-alive connections.
const serviceWarmup = time.Second

// server is a cmd/ratelimiter child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	setup  time.Duration // spawn to the first 200 from /healthz
	exited chan error    // receives the process's exit once

	stopped bool
	stopErr error
}

// freePort asks the kernel for a loopback port nobody is listening on.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns the ratelimiter binary on a loopback port and waits
// for /healthz to answer 200.
func startServer(bin string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	var stderr bytes.Buffer
	s := &server{
		cmd:    exec.Command(bin, "-addr", addr), // every other flag at its default
		base:   "http://" + addr,
		exited: make(chan error, 1),
	}
	s.cmd.Stderr = &stderr
	// The server dies with the benchmark, even one killed mid-run.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	health := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	for {
		if resp, err := health.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(start)
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			s.stopped, s.stopErr = true, err
			return nil, fmt.Errorf("ratelimiter exited before serving: %v: %s", err, stderr.String())
		default:
		}
		if time.Since(start) > 10*time.Second {
			s.stop()
			return nil, fmt.Errorf("ratelimiter: no 200 from /healthz within 10s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM, which drains the server, and waits for it to exit;
// a server still running after ten seconds is killed. Calls after the
// first return the first call's result.
func (s *server) stop() error {
	if s.stopped {
		return s.stopErr
	}
	s.stopped = true
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case s.stopErr = <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		s.stopErr = fmt.Errorf("ratelimiter did not exit within 10s of SIGTERM")
	}
	return s.stopErr
}

// statz is the part of the /statz answer the benchmark reads.
type statz struct {
	Admitted int64   `json:"admitted"`
	Shed     int64   `json:"shed"`
	TimedOut int64   `json:"timed_out"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
}

func (s *server) statz() (statz, error) {
	var sz statz
	resp, err := http.Get(s.base + "/statz")
	if err != nil {
		return sz, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sz, fmt.Errorf("/statz: %s", resp.Status)
	}
	return sz, json.NewDecoder(resp.Body).Decode(&sz)
}

// serviceSetup starts the server reps times, stopping all but the last,
// and returns the median set-up time in seconds with the last server.
func serviceSetup(bin string, reps int) (float64, *server, error) {
	times := make([]float64, reps)
	var s *server
	for i := range times {
		if s != nil {
			if err := s.stop(); err != nil {
				return 0, nil, err
			}
		}
		var err error
		if s, err = startServer(bin); err != nil {
			return 0, nil, err
		}
		times[i] = s.setup.Seconds()
	}
	return median(times), s, nil
}

// serviceSlice is the length of one closed-loop slice. Every end-to-end
// metric of the service is a median over slices, so a second in which
// another tenant held the host's cores moves none of them.
const serviceSlice = time.Second

// serviceRun is the outcome of one closed-loop measurement.
type serviceRun struct {
	lat       []float64 // ms per OK request, send to body read
	p50       []float64 // median latency per slice, ms
	tail      []float64 // serviceTail latency per slice, ms
	rate      []float64 // OK requests per second, per slice
	serverCPU []float64 // server CPU µs per OK request, per slice
	ok        int64
	clientCPU time.Duration
	split     split
	attempted int64
	failed    int64
	problems  []string
}

// client drives GET /work?ms=0 over at most conns keep-alive connections.
type client struct {
	http *http.Client
	url  string
}

func newClient(s *server, conns int) *client {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{http: &http.Client{Transport: t}, url: s.base + "/work?ms=0"}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// run drives the closed loop with workers callers for dur and adds the
// outcome to r. Each response must be a 200 whose body starts "ok ";
// anything else, or a transport error, is a failed request. With
// interleave set, only odd-numbered requests are traced.
func (c *client) run(r *serviceRun, workers int, dur time.Duration, seed uint64, tr *tracer, interleave bool) {
	root := tr.begin("perfbench", "service", -1, 0)
	defer tr.end(root)
	base := r.attempted
	var mu sync.Mutex
	op := func(ctx context.Context, i int) load.Outcome {
		rtr := tr
		if interleave && i%2 == 0 {
			rtr = nil
		}
		sp := rtr.begin("http", "GET /work", root, base+int64(i))
		start := time.Now()
		out, problem := c.get(ctx)
		d := time.Since(start)
		rtr.end(sp)
		mu.Lock()
		if out == load.OK {
			r.lat = append(r.lat, float64(d)/1e6)
			r.split.add(rtr != nil, 1, d)
		} else if len(r.problems) < 10 {
			r.problems = append(r.problems, problem)
		}
		mu.Unlock()
		return out
	}
	res := load.RunClosed(op, load.ClosedOpts{Workers: workers, Duration: dur, Seed: seed})
	r.ok += res.OK
	r.attempted += int64(res.Offered)
	r.failed += int64(res.Offered) - res.OK
	if !res.Accounted() {
		r.failed++
		r.problems = append(r.problems, "load: offered requests not all classified")
	}
}

func (c *client) get(ctx context.Context) (load.Outcome, string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url, nil)
	if err != nil {
		return load.DeadlineExceeded, err.Error()
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return load.DeadlineExceeded, err.Error()
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		return load.DeadlineExceeded, err.Error()
	case resp.StatusCode == http.StatusTooManyRequests:
		return load.Shed, resp.Status
	case resp.StatusCode != http.StatusOK:
		return load.DeadlineExceeded, resp.Status
	case !bytes.HasPrefix(body, []byte("ok ")):
		return load.DeadlineExceeded, fmt.Sprintf("body %.40q", body)
	}
	return load.OK, ""
}

// measureService warms the server up, then measures dur of closed-loop
// traffic with workers callers in one-second slices, reading the
// server's CPU around each.
func measureService(s *server, workers int, dur time.Duration, seed uint64, tr *tracer, interleave bool) (warm, r *serviceRun, err error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	c := newClient(s, workers)
	defer c.close()
	warm, r = &serviceRun{}, &serviceRun{}
	c.run(warm, workers, serviceWarmup, seed, nil, false)
	pid := s.cmd.Process.Pid
	for start := time.Now(); time.Since(start) < dur; {
		s0, err := cpuOf(pid)
		if err != nil {
			return nil, nil, err
		}
		ok0, lat0, c0, t0 := r.ok, len(r.lat), cpuSelf(), time.Now()
		c.run(r, workers, serviceSlice, seed, tr, interleave)
		el := time.Since(t0)
		r.clientCPU += cpuSelf() - c0
		s1, err := cpuOf(pid)
		if err != nil {
			return nil, nil, err
		}
		n := float64(r.ok - ok0)
		lat := r.lat[lat0:]
		r.p50 = append(r.p50, median(lat))
		r.tail = append(r.tail, percentile(lat, serviceTail))
		r.rate = append(r.rate, n/el.Seconds())
		r.serverCPU = append(r.serverCPU, (s1-s0).Seconds()*1e6/n)
	}
	return warm, r, nil
}

// checkStatz holds the server's own count to the client's: the gate
// admitted exactly the requests the client saw answered 200.
func checkStatz(sz statz, ok int64) string {
	if sz.Admitted != ok {
		return fmt.Sprintf("statz admitted=%d, client saw %d OK", sz.Admitted, ok)
	}
	return ""
}
