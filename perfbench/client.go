package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Closed-loop client shape: each connection keeps window jobs
// outstanding and submits the next only when one reaches a terminal
// status. conns never exceeds the 2 CPUs of the reference box.
const (
	clientConns  = 2
	clientWindow = 4
	// pollPause is the client's wait after a poll pass that found no
	// finished job: it bounds both the observation delay added to a
	// latency and the GET load the client puts on the server.
	pollPause = 2 * time.Millisecond
	// clientDeadline bounds one closed-loop run so a hung server fails
	// the run instead of outliving the driver's limit.
	clientDeadline = 120 * time.Second
)

// jobView is the subset of paradigmd's job status the client reads.
type jobView struct {
	ID     string  `json:"id"`
	Status string  `json:"status"`
	Error  string  `json:"error"`
	Phi    float64 `json:"phi"`
	Actual float64 `json:"actual"`
	Digest string  `json:"digest"`
}

func terminal(status string) bool { return status == "done" || status == "failed" }

// jobRun is the client's record of one submitted job.
type jobRun struct {
	tenant          string
	id              string
	post, ack, done time.Time
	view            jobView
	err             error
}

// ok reports a job acknowledged and completed with a digest.
func (r *jobRun) ok() bool { return r.err == nil && r.view.Status == "done" && r.view.Digest != "" }

// loopStats summarizes one closed-loop run.
type loopStats struct {
	window      time.Duration // first POST to last terminal observation
	outstanding float64       // time-weighted mean jobs in flight
	cpuShare    float64       // client process CPU over window × CPUs
}

// levelGauge integrates a level over time for a time-weighted mean.
type levelGauge struct {
	mu    sync.Mutex
	level int
	last  time.Time
	area  float64
}

func (g *levelGauge) add(delta int) {
	now := time.Now()
	g.mu.Lock()
	if !g.last.IsZero() {
		g.area += float64(g.level) * now.Sub(g.last).Seconds()
	}
	g.level += delta
	g.last = now
	g.mu.Unlock()
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// submit POSTs one job and returns its id.
func submit(cl *http.Client, base string, s svcSpec, tenant string) (string, error) {
	body, err := json.Marshal(struct {
		svcSpec
		Tenant string `json:"tenant"`
	}{s, tenant})
	if err != nil {
		return "", err
	}
	resp, err := cl.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submit %s: %s: %s", s, resp.Status, strings.TrimSpace(string(data)))
	}
	var ack struct{ ID string }
	if err := json.Unmarshal(data, &ack); err != nil || ack.ID == "" {
		return "", fmt.Errorf("submit %s: bad ack %q", s, data)
	}
	return ack.ID, nil
}

// poll GETs one job's status.
func poll(cl *http.Client, base, id string) (jobView, error) {
	var v jobView
	resp, err := cl.Get(base + "/jobs/" + id)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return v, err
	}
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("poll %s: %s", id, resp.Status)
	}
	return v, json.Unmarshal(data, &v)
}

// driveClosedLoop runs jobs through base with clientConns connections,
// each keeping clientWindow jobs outstanding. Every outstanding slot is
// its own tenant, so two in-flight jobs never share a tenant and the
// server never coalesces them: each timed job is executed on its own.
func driveClosedLoop(base string, jobs []svcSpec) ([]jobRun, loopStats, error) {
	runs := make([]jobRun, len(jobs))
	var next atomic.Int64
	var inflight levelGauge
	deadline := time.Now().Add(clientDeadline)
	cpu0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, clientConns)
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = connLoop(newHTTPClient(), base, c, jobs, runs, &next, &inflight, deadline)
		}(c)
	}
	wg.Wait()
	cpu := processCPU() - cpu0
	var last time.Time
	for i := range runs {
		if runs[i].done.After(last) {
			last = runs[i].done
		}
	}
	st := loopStats{window: last.Sub(start)}
	if st.window > 0 {
		st.outstanding = inflight.area / st.window.Seconds()
		st.cpuShare = cpu.Seconds() / (st.window.Seconds() * float64(runtime.NumCPU()))
	}
	for _, err := range errs {
		if err != nil {
			return runs, st, err
		}
	}
	return runs, st, nil
}

// connLoop is one connection's closed loop. A job counts as outstanding
// from the moment its POST is sent until its terminal status is seen;
// a freed slot is refilled as soon as its job finishes.
func connLoop(cl *http.Client, base string, c int, jobs []svcSpec, runs []jobRun, next *atomic.Int64, inflight *levelGauge, deadline time.Time) error {
	defer cl.CloseIdleConnections()
	type slot struct{ job, tenant int }
	var out []slot
	free := make([]int, clientWindow)
	for i := range free {
		free[i] = clientWindow - 1 - i
	}
	fill := func() {
		for len(free) > 0 {
			i := int(next.Add(1) - 1)
			if i >= len(jobs) {
				return
			}
			t := free[len(free)-1]
			free = free[:len(free)-1]
			r := &runs[i]
			r.tenant = fmt.Sprintf("c%d-s%d", c, t)
			inflight.add(1)
			r.post = time.Now()
			r.id, r.err = submit(cl, base, jobs[i], r.tenant)
			r.ack = time.Now()
			if r.err != nil {
				r.done = r.ack
				inflight.add(-1)
				free = append(free, t)
				continue
			}
			out = append(out, slot{i, t})
		}
	}
	for {
		fill()
		if len(out) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			for _, s := range out {
				runs[s.job].err = fmt.Errorf("no terminal status within %v", clientDeadline)
				runs[s.job].done = time.Now()
			}
			return fmt.Errorf("closed loop exceeded %v with %d jobs outstanding", clientDeadline, len(out))
		}
		progressed := false
		for k := 0; k < len(out); {
			s := out[k]
			r := &runs[s.job]
			v, err := poll(cl, base, r.id)
			if err == nil && !terminal(v.Status) {
				k++
				continue
			}
			r.done = time.Now()
			r.view, r.err = v, err
			inflight.add(-1)
			free = append(free, s.tenant)
			out = append(out[:k], out[k+1:]...)
			progressed = true
			fill()
		}
		if !progressed {
			time.Sleep(pollPause)
		}
	}
}

// processCPU is this process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// daemon is a paradigmd subprocess built from the working tree.
type daemon struct {
	cmd  *exec.Cmd
	base string
	dir  string
	done chan struct{}
}

// startDaemon launches paradigmd on a loopback port with its journal and
// per-job WALs under dir, and waits until /healthz answers.
func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-checkpoint-dir", dir)
	// The kernel kills the daemon if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start paradigmd: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, done: make(chan struct{})}
	addr := make(chan string, 1)
	// The reader drains the daemon's log for its whole life, so the
	// daemon never blocks on a full pipe; only the listen line is kept.
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, fmt.Errorf("paradigmd exited before listening")
		}
		d.base = "http://" + a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("paradigmd did not listen within 30s")
	}
	cl := newHTTPClient()
	defer cl.CloseIdleConnections()
	for end := time.Now().Add(10 * time.Second); ; {
		resp, err := cl.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(end) {
			d.stop()
			return nil, fmt.Errorf("paradigmd not healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMB reads the daemon's VmHWM.
func (d *daemon) peakRSSMB() (float64, error) {
	kb, err := procStatusKB(strconv.Itoa(d.cmd.Process.Pid), "VmHWM")
	return kb / 1024, err
}

// stop drains the daemon with SIGTERM, kills it if it lingers, and
// waits for it to exit.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// scrape reads the daemon's /metrics as name → value for counters and
// name → sum for histograms.
func scrape(base string) (map[string]float64, error) {
	cl := newHTTPClient()
	defer cl.CloseIdleConnections()
	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		switch f[0] {
		case "counter", "gauge":
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				out[f[1]] = v
			}
		case "hist":
			for _, kv := range f[2:] {
				if s, ok := strings.CutPrefix(kv, "sum="); ok {
					if v, err := strconv.ParseFloat(s, 64); err == nil {
						out[f[1]] = v
					}
				}
			}
		}
	}
	return out, sc.Err()
}

// stubCeiling measures the closed-loop client alone: the same loop
// against an in-process handler that acknowledges and finishes every
// job instantly. It returns jobs per second.
func stubCeiling(jobs []svcSpec) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var ids atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"%d"}`, ids.Add(1))
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/jobs/")
		fmt.Fprintf(w, `{"id":%q,"status":"done","phi":1,"actual":1,"digest":"stub"}`, id)
	})
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	runs, st, err := driveClosedLoop("http://"+ln.Addr().String(), jobs)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	<-served
	if err != nil {
		return 0, err
	}
	for i := range runs {
		if !runs[i].ok() {
			return 0, fmt.Errorf("stub job %d: %v", i, runs[i].err)
		}
	}
	return float64(len(runs)) / st.window.Seconds(), nil
}
