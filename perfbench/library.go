package main

import (
	"fmt"
	"runtime"
	"time"

	"paradigm"
	"paradigm/internal/codegen"
	"paradigm/internal/mdg"
	"paradigm/internal/oracle"
	"paradigm/internal/sim"
)

// verifyTol bounds the worst absolute deviation paradigm.Verify may
// report between a simulated run and the sequential reference.
const verifyTol = 1e-9

// libSetupRepeats is how many times a library run calibrates; setup_s
// is the median.
const libSetupRepeats = 21

// calibrate is the library user's set-up: fit the CM-5 cost model.
func calibrate() (*paradigm.Calibration, error) {
	return paradigm.Calibrate(paradigm.NewCM5(64))
}

// setupLibrary calibrates libSetupRepeats times and reports the median.
func setupLibrary() (*paradigm.Calibration, float64, error) {
	var cal *paradigm.Calibration
	times := make([]float64, 0, libSetupRepeats)
	for i := 0; i < libSetupRepeats; i++ {
		t0 := time.Now()
		c, err := calibrate()
		if err != nil {
			return nil, 0, fmt.Errorf("calibrate: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		cal = c
	}
	return cal, median(times), nil
}

// jobSummary is what a pass keeps of one finished job to cross-check
// the traced pass against the untraced one.
type jobSummary struct {
	ok          bool
	phi, actual float64
}

// runCold drives paradigm.RunContext serially with no caches over the
// seeded spec list, verifying every result outside the timed region.
func runCold(b *bench) error {
	specs := runColdSpecs(b.seed, b.seconds)
	cal, setup, err := setupLibrary()
	if err != nil {
		return err
	}
	ctx := b.ctx
	lat := make([]time.Duration, 0, len(specs))
	sums := make([]jobSummary, len(specs))
	var phis, acts []float64
	var busy time.Duration
	for i, s := range specs {
		b.out.attempted++
		// Each job starts on a collected heap, so one job's garbage is
		// not charged to the next.
		runtime.GC()
		t0 := time.Now()
		p, err := s.build(cal)
		var res *paradigm.Result
		if err == nil {
			res, err = paradigm.RunContext(ctx, p, paradigm.NewCM5(s.Procs), cal, s.Procs)
		}
		d := time.Since(t0)
		if err != nil {
			b.out.jobFailed(s.String(), err)
			continue
		}
		worst, err := paradigm.Verify(p, res.Sim)
		if err == nil && worst > verifyTol {
			err = fmt.Errorf("simulated output deviates from the reference by %g", worst)
		}
		if err != nil {
			b.out.jobFailed(s.String(), err)
			continue
		}
		lat = append(lat, d)
		busy += d
		phis = append(phis, res.Alloc.Phi)
		acts = append(acts, res.Actual)
		sums[i] = jobSummary{ok: true, phi: res.Alloc.Phi, actual: res.Actual}
	}
	b.out.endToEnd(setup, lat, busy, phis, acts, selfPeakRSSMB())
	if !b.trace {
		return nil
	}
	return runColdTraced(b, specs, cal, sums, busy)
}

// runColdTraced composes each run-cold job from the stage calls
// RunContext makes, with a span around each.
func runColdTraced(b *bench, specs []libSpec, cal *paradigm.Calibration, sums []jobSummary, untraced time.Duration) error {
	ctx := b.ctx
	model := cal.Model()
	tr := newTracer()
	var c counters
	ob := &stageObserver{c: &c}
	mem := startMem()
	for i, s := range specs {
		if !sums[i].ok {
			continue
		}
		runtime.GC()
		root := tr.begin(layerJob, i, noParent)
		sp := tr.begin(layerPrograms, i, root)
		p, err := s.build(cal)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("traced %s: %w", s, err)
		}
		sp = tr.begin(layerAlloc, i, root)
		ar, err := paradigm.AllocateContext(ctx, p.G, model, s.Procs, paradigm.WithObserver(ob))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("traced %s: %w", s, err)
		}
		sp = tr.begin(layerPSA, i, root)
		sch, err := paradigm.BuildScheduleContext(ctx, p.G, model, ar.P, s.Procs)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("traced %s: %w", s, err)
		}
		sp = tr.begin(layerCodegen, i, root)
		streams, err := codegen.GenerateCtx(ctx, p, sch)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("traced %s: %w", s, err)
		}
		sp = tr.begin(layerSim, i, root)
		simRes, err := sim.RunCtx(ctx, p, streams, paradigm.NewCM5(s.Procs), sim.Options{})
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("traced %s: %w", s, err)
		}
		if ar.Phi != sums[i].phi || simRes.Makespan != sums[i].actual {
			b.out.problem("traced %s diverged from RunContext: phi %v vs %v, actual %v vs %v",
				s, ar.Phi, sums[i].phi, simRes.Makespan, sums[i].actual)
		}
		c.edges += edgeCount(p.G)
		c.countStreams(streams)
		c.countSim(simRes)
	}
	// Like the untraced pass, the traced wall time is the jobs' own:
	// the collections between jobs are left out.
	wall := tr.total(layerJob)
	b.out.perLayer(tr, &c, wall, untraced, mem.stop(tr.count(layerJob)))
	return b.writeSpans(tr)
}

// admmOptions is solve-large's allocation: consensus ADMM over 16
// subgraphs with its own stopping rule and no polish.
func admmOptions() paradigm.Option {
	return paradigm.WithAllocOptions(paradigm.AllocOptions{
		Backend: "admm",
		ADMM:    paradigm.ADMMOptions{Subgraphs: 16, SkipPolish: true},
	})
}

func (s libSpec) graph() (*mdg.Graph, error) {
	return mdg.RandomLayered(s.GraphSeed, s.Layers, s.LayerWidth, s.FanIn, s.TransferSize)
}

// solveLarge builds each seeded layered MDG, solves it with ADMM and
// schedules it, checking every allocation and schedule with the oracle
// outside the timed region.
func solveLarge(b *bench) error {
	specs := solveLargeSpecs(b.seed, b.seconds)
	cal, setup, err := setupLibrary()
	if err != nil {
		return err
	}
	ctx := b.ctx
	model := cal.Model()
	lat := make([]time.Duration, 0, len(specs))
	sums := make([]jobSummary, len(specs))
	var phis, spans []float64
	var busy time.Duration
	for i, s := range specs {
		b.out.attempted++
		runtime.GC()
		t0 := time.Now()
		g, err := s.graph()
		var (
			ar  paradigm.Allocation
			sch *paradigm.Schedule
		)
		if err == nil {
			ar, err = paradigm.AllocateContext(ctx, g, model, s.Procs, admmOptions())
		}
		if err == nil {
			sch, err = paradigm.BuildScheduleContext(ctx, g, model, ar.P, s.Procs)
		}
		d := time.Since(t0)
		if err == nil {
			err = oracle.CheckAllocation(g, model, s.Procs, ar, oracle.Options{ConvexProbes: -1})
		}
		if err == nil {
			err = oracle.CheckSchedule(g, model, sch)
		}
		if err != nil {
			b.out.jobFailed(s.String(), err)
			continue
		}
		lat = append(lat, d)
		busy += d
		phis = append(phis, ar.Phi)
		spans = append(spans, sch.Makespan)
		sums[i] = jobSummary{ok: true, phi: ar.Phi, actual: sch.Makespan}
	}
	b.out.endToEnd(setup, lat, busy, phis, spans, selfPeakRSSMB())
	if !b.trace {
		return nil
	}

	tr := newTracer()
	var c counters
	ob := &stageObserver{c: &c}
	mem := startMem()
	for i, s := range specs {
		if !sums[i].ok {
			continue
		}
		runtime.GC()
		root := tr.begin(layerJob, i, noParent)
		sp := tr.begin(layerMDGBuild, i, root)
		g, err := s.graph()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("traced %s: %w", s, err)
		}
		sp = tr.begin(layerAlloc, i, root)
		ar, err := paradigm.AllocateContext(ctx, g, model, s.Procs, admmOptions(), paradigm.WithObserver(ob))
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("traced %s: %w", s, err)
		}
		sp = tr.begin(layerPSA, i, root)
		sch, err := paradigm.BuildScheduleContext(ctx, g, model, ar.P, s.Procs)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("traced %s: %w", s, err)
		}
		if ar.Phi != sums[i].phi || sch.Makespan != sums[i].actual {
			b.out.problem("traced %s diverged: phi %v vs %v, makespan %v vs %v",
				s, ar.Phi, sums[i].phi, sch.Makespan, sums[i].actual)
		}
		c.edges += edgeCount(g)
	}
	// Like the untraced pass, the traced wall time is the jobs' own:
	// the collections between jobs are left out.
	wall := tr.total(layerJob)
	b.out.perLayer(tr, &c, wall, busy, mem.stop(tr.count(layerJob)))
	return b.writeSpans(tr)
}

func edgeCount(g *mdg.Graph) int {
	n := 0
	for i := 0; i < g.NumNodes(); i++ {
		n += len(g.Succs(mdg.NodeID(i)))
	}
	return n
}

// memWindow brackets a pass with runtime allocation counters.
type memWindow struct{ before runtime.MemStats }

type memDelta struct {
	bytesPerJob float64
	gcCycles    uint32
}

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

func (w *memWindow) stop(jobs int) memDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	d := memDelta{gcCycles: after.NumGC - w.before.NumGC}
	if jobs > 0 {
		d.bytesPerJob = float64(after.TotalAlloc-w.before.TotalAlloc) / float64(jobs)
	}
	return d
}
