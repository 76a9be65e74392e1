package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Layers a span can belong to. A span's self time (its duration minus
// its children's) is charged to its layer; "job" is the per-job root,
// whose self time is the benchmark's own glue between stage calls.
const (
	layerJob       = "job"
	layerPrograms  = "programs.build"
	layerMDGBuild  = "mdg.build"
	layerMDGHash   = "mdg.hash"
	layerPlan      = "plan"
	layerAlloc     = "alloc.solve"
	layerPSA       = "sched.psa"
	layerReplay    = "schedcache.replay"
	layerCodegen   = "codegen.generate"
	layerSim       = "sim.run"
	layerDigest    = "digest"
	layerCkpt      = "ckpt.commit"
	layerJobstore  = "jobstore.append"
	noParent       = -1
	spanFileSuffix = ".spans.jsonl"
)

// span is one timed call into a layer, kept in memory until the run
// ends. Start and End are offsets from the tracer's origin.
type span struct {
	Name   string        `json:"name"`
	Job    int           `json:"job"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer records spans around the benchmark's calls into each layer. A
// nil tracer records nothing, so the untraced pass runs the same code.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return noParent
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == noParent {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a finished span bounded by two instants the benchmark
// observed, such as the pipeline events emitted between stages of one
// call.
func (t *tracer) add(name string, job, parent int, from, to time.Time) int {
	if t == nil {
		return noParent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: from.Sub(t.origin), End: to.Sub(t.origin)})
	return len(t.spans) - 1
}

// selfTimes charges every span's self time to its layer.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != noParent {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// total is the summed duration of one layer's spans.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// count reports how many spans of one layer were recorded.
func (t *tracer) count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// coverage is the share of wall time charged to a named layer: every
// span's self time except the job roots', over the traced wall time.
func (t *tracer) coverage(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	var covered time.Duration
	for name, d := range t.selfTimes() {
		if name != layerJob {
			covered += d
		}
	}
	return covered.Seconds() / wall.Seconds()
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
