package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"paradigm"
	"paradigm/internal/codegen"
	"paradigm/internal/obs"
	"paradigm/internal/sim"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEndMetrics are reported by every --trace 0 run.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"success_ratio", "ratio"},
	{"phi_geomean", "model_s"},
	{"makespan_geomean", "model_s"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are reported by every --trace 1 run; a layer a
// workload does not reach reports 0.
var perLayerMetrics = []metricDef{
	{"programs.build_s", "s"},
	{"mdg.build_s", "s"},
	{"mdg.edges", "count"},
	{"mdg.hash_s", "s"},
	{"mdg.hash_calls", "count"},
	{"alloc.solve_s", "s"},
	{"alloc.evals", "count"},
	{"alloc.iters", "count"},
	{"schedcache.hit_ratio", "ratio"},
	{"schedcache.lookups", "count"},
	{"schedcache.replay_s", "s"},
	{"sched.psa_s", "s"},
	{"codegen.generate_s", "s"},
	{"codegen.instrs", "count"},
	{"sim.run_s", "s"},
	{"sim.messages", "count"},
	{"sim.bytes", "B"},
	{"digest_s", "s"},
	{"ckpt.commit_s", "s"},
	{"ckpt.commits", "count"},
	{"jobstore.append_s", "s"},
	{"jobstore.appends", "count"},
	{"paradigmd.submit_ms_p50", "ms"},
	{"paradigmd.submit_ms_p99", "ms"},
	{"paradigmd.complete_ms_p50", "ms"},
	{"paradigmd.alloc_seconds_sum", "s"},
	{"runtime.alloc_bytes_per_job", "B"},
	{"runtime.gc_cycles", "count"},
	{"loadgen.cpu_share", "ratio"},
	{"loadgen.outstanding", "count"},
	{"loadgen.ceiling_jobs_per_s", "1/s"},
	{"trace.jobs", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
}

// outcome accumulates one run's verdict and figures.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
	samples           int // latency samples behind the percentiles
	tail              float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// jobFailed counts a failed, refused or wrong-output job.
func (o *outcome) jobFailed(job string, err error) {
	o.failed++
	o.problem("job %s: %v", job, err)
}

// problem records a correctness violation that fails the run.
func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// endToEnd records the user-visible figures of one run. lat holds the
// latency of every correct job, busy the wall time they took together.
func (o *outcome) endToEnd(setup float64, lat []time.Duration, busy time.Duration, phis, spans []float64, rssMB float64) {
	o.set("setup_s", setup)
	if busy > 0 {
		o.set("jobs_per_s", float64(len(lat))/busy.Seconds())
	}
	l := msAll(lat)
	o.samples = len(l)
	o.tail = tailPercentile(len(l))
	o.set("latency_p50_ms", median(l))
	o.set("latency_tail_ms", percentile(l, o.tail))
	if o.attempted > 0 {
		o.set("success_ratio", float64(o.attempted-o.failed)/float64(o.attempted))
	}
	o.set("phi_geomean", geomean(phis))
	o.set("makespan_geomean", geomean(spans))
	o.set("peak_rss_mb", rssMB)
}

// perLayer records the traced pass: layer self times from the spans,
// counts from the events and results, runtime allocation figures, and
// the trace's own health.
func (o *outcome) perLayer(tr *tracer, c *counters, wall, untraced time.Duration, mem memDelta) {
	self := tr.selfTimes()
	sec := func(layer string) float64 { return self[layer].Seconds() }
	o.set("programs.build_s", sec(layerPrograms))
	o.set("mdg.build_s", sec(layerMDGBuild))
	o.set("mdg.edges", float64(c.edges))
	o.set("mdg.hash_s", sec(layerMDGHash))
	o.set("mdg.hash_calls", float64(tr.count(layerMDGHash)))
	o.set("alloc.solve_s", sec(layerAlloc))
	o.set("alloc.evals", float64(c.evals))
	o.set("alloc.iters", float64(c.iters))
	if c.lookups > 0 {
		o.set("schedcache.hit_ratio", float64(c.hits)/float64(c.lookups))
	}
	o.set("schedcache.lookups", float64(c.lookups))
	o.set("schedcache.replay_s", sec(layerReplay))
	o.set("sched.psa_s", sec(layerPSA))
	o.set("codegen.generate_s", sec(layerCodegen))
	o.set("codegen.instrs", float64(c.instrs))
	o.set("sim.run_s", sec(layerSim))
	o.set("sim.messages", float64(c.messages))
	o.set("sim.bytes", float64(c.bytes))
	o.set("digest_s", sec(layerDigest))
	o.set("ckpt.commit_s", sec(layerCkpt))
	o.set("ckpt.commits", float64(c.commits))
	o.set("jobstore.append_s", sec(layerJobstore))
	o.set("jobstore.appends", float64(c.appends))
	o.set("runtime.alloc_bytes_per_job", mem.bytesPerJob)
	o.set("runtime.gc_cycles", float64(mem.gcCycles))
	o.set("trace.jobs", float64(tr.count(layerJob)))
	o.set("trace.coverage", tr.coverage(wall))
	if untraced > 0 {
		o.set("trace.overhead", wall.Seconds()/untraced.Seconds())
	}
}

// report renders the run's metrics of one tier, every name present.
func (o *outcome) report(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: o.values[d.name], Unit: d.unit}
	}
	return out
}

// counters are the per-layer work counts of a traced pass.
type counters struct {
	edges, evals, iters int
	lookups, hits       int
	instrs              int
	messages, bytes     int
	commits, appends    int
}

func (c *counters) countStreams(st *codegen.Streams) {
	s := st.Stats()
	c.instrs += s.Sends + s.Recvs + s.Moves + s.Execs
}

func (c *counters) countSim(r *sim.Result) {
	c.messages += r.Messages
	c.bytes += r.NetworkBytes
}

// stageObserver counts solver work and timestamps the cache events that
// separate the stages inside one plan call.
type stageObserver struct {
	mu    sync.Mutex
	c     *counters
	marks []mark
}

// mark is one stage-boundary event seen during a plan call.
type mark struct {
	event   string // "sched-cache" | "alloc-cache" | "alloc-done"
	outcome string
	at      time.Time
}

func (o *stageObserver) Observe(e paradigm.Event) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	switch ev := e.(type) {
	case obs.SolverStage:
		o.c.iters += ev.Iters
		o.c.evals += ev.Evals
	case obs.SchedCache:
		o.c.lookups++
		if ev.Outcome == "hit" {
			o.c.hits++
		}
		o.marks = append(o.marks, mark{event: "sched-cache", outcome: ev.Outcome, at: now})
	case obs.AllocCache:
		o.marks = append(o.marks, mark{event: "alloc-cache", outcome: ev.Outcome, at: now})
	case obs.AllocDone:
		o.marks = append(o.marks, mark{event: "alloc-done", outcome: ev.Backend, at: now})
	}
}

// takeMarks returns and clears the marks of the last call.
func (o *stageObserver) takeMarks() []mark {
	o.mu.Lock()
	defer o.mu.Unlock()
	m := o.marks
	o.marks = nil
	return m
}

// procStatusKB reads one "Vm..." line of /proc/<pid>/status in kB.
func procStatusKB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", field, err)
			}
			return kb, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no %s", pid, field)
}

// selfPeakRSSMB is the benchmark process's peak resident set (0 when
// /proc is unavailable).
func selfPeakRSSMB() float64 {
	kb, err := procStatusKB("self", "VmHWM")
	if err != nil {
		return 0
	}
	return kb / 1024
}
