package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"paradigm"
	"paradigm/internal/ckpt"
	"paradigm/internal/codegen"
	"paradigm/internal/jobstore"
	"paradigm/internal/sim"
)

const (
	// svcRounds is how many daemon lives a service run spans: each round
	// starts a fresh paradigmd (priming it on service-warm), which is the
	// set-up setup_s takes the median of, then serves its share of the
	// job list. Fresh daemons bound the memory paradigmd holds for
	// finished jobs while the run measures more jobs.
	svcRounds = 4
	// coldRefSample is how many service-cold jobs are checked against an
	// in-process reference run.
	coldRefSample = 24
	// replayShare is the fraction of a service run's job list the traced
	// in-process replay covers (the first 1/replayShare of the list).
	replayShare = 4
)

// round is one daemon life's share of a service run.
type round struct {
	setup         float64
	runs          []jobRun
	stats         loopStats
	rss           float64
	before, after map[string]float64
}

// serviceRound starts a daemon, primes it with set (service-warm), and
// drives jobs through it closed-loop between two scrapes of its
// /metrics. The daemon is stopped before serviceRound returns.
func serviceRound(b *bench, i int, set, jobs []svcSpec) (round, error) {
	var r round
	t0 := time.Now()
	d, err := startDaemon(b.daemonBin(), filepath.Join(b.workDir, fmt.Sprintf("paradigmd-%d", i)))
	if err != nil {
		return r, err
	}
	defer func() {
		d.stop()
		_ = os.RemoveAll(d.dir)
	}()
	if len(set) > 0 {
		if err := prime(d.base, set); err != nil {
			return r, err
		}
	}
	r.setup = time.Since(t0).Seconds()
	if r.before, err = scrape(d.base); err != nil {
		return r, fmt.Errorf("scrape /metrics: %w", err)
	}
	var loopErr error
	r.runs, r.stats, loopErr = driveClosedLoop(d.base, jobs)
	if r.after, err = scrape(d.base); err != nil {
		return r, fmt.Errorf("scrape /metrics: %w", err)
	}
	if r.rss, err = d.peakRSSMB(); err != nil {
		return r, fmt.Errorf("paradigmd peak RSS: %w", err)
	}
	if loopErr != nil {
		b.out.problem("closed loop: %v", loopErr)
	}
	return r, nil
}

// serviceRun drives paradigmd over HTTP. warm primes the warm spec set
// before timing, so every timed job is a schedule-cache hit; otherwise
// every job is a spec the server has never seen.
func serviceRun(b *bench, warm bool) error {
	var set, jobs []svcSpec
	if warm {
		set, jobs = svcWarmSpecs(b.seed, b.seconds)
	} else {
		jobs = svcColdSpecs(b.seed, b.seconds)
	}

	var (
		runs              []jobRun
		setups            []float64
		window            time.Duration
		inflightArea, cpu float64
		rss, allocSeconds float64
		lat, sub, comp    []time.Duration
		phis, acts        []float64
	)
	for i := 0; i < svcRounds; i++ {
		chunk := jobs[i*len(jobs)/svcRounds : (i+1)*len(jobs)/svcRounds]
		r, err := serviceRound(b, i, set, chunk)
		if err != nil {
			return err
		}
		ok := 0
		for k := range r.runs {
			if r.runs[k].ok() {
				ok++
			}
		}
		honestyGate(b.out, warm, ok, r.before, r.after)
		for name, v := range r.after {
			if strings.HasPrefix(name, "paradigmd_alloc_seconds_") {
				allocSeconds += v - r.before[name]
			}
		}
		setups = append(setups, r.setup)
		runs = append(runs, r.runs...)
		window += r.stats.window
		inflightArea += r.stats.outstanding * r.stats.window.Seconds()
		cpu += r.stats.cpuShare * r.stats.window.Seconds()
		rss = max(rss, r.rss)
	}

	for i := range runs {
		r := &runs[i]
		b.out.attempted++
		if !r.ok() {
			err := r.err
			if err == nil {
				err = fmt.Errorf("status %q: %s", r.view.Status, r.view.Error)
			}
			b.out.jobFailed(jobs[i].String(), err)
			continue
		}
		lat = append(lat, r.done.Sub(r.post))
		sub = append(sub, r.ack.Sub(r.post))
		comp = append(comp, r.done.Sub(r.ack))
		phis = append(phis, r.view.Phi)
		acts = append(acts, r.view.Actual)
	}

	// Outside the timed window: every warm spec, and a seeded sample of
	// cold specs, is re-run in process and must give the server's digest.
	cal, err := calibrate()
	if err != nil {
		return err
	}
	refs, err := referenceDigests(b, cal, jobs, warm)
	if err != nil {
		return err
	}
	for i := range runs {
		if want, ok := refs[jobs[i]]; ok && runs[i].ok() && runs[i].view.Digest != want {
			b.out.jobFailed(jobs[i].String(), fmt.Errorf("digest %s, in-process reference %s", runs[i].view.Digest, want))
		}
	}

	// Latency runs from POST to the terminal status being observed;
	// throughput is completed jobs over the rounds' timed windows.
	b.out.endToEnd(median(setups), lat, window, phis, acts, rss)
	if !b.trace {
		return nil
	}

	b.out.set("paradigmd.submit_ms_p50", median(msAll(sub)))
	b.out.set("paradigmd.submit_ms_p99", percentile(msAll(sub), 0.99))
	b.out.set("paradigmd.complete_ms_p50", median(msAll(comp)))
	b.out.set("paradigmd.alloc_seconds_sum", allocSeconds)
	if window > 0 {
		b.out.set("loadgen.cpu_share", cpu/window.Seconds())
		b.out.set("loadgen.outstanding", inflightArea/window.Seconds())
	}
	ceiling, err := stubCeiling(jobs)
	if err != nil {
		return fmt.Errorf("client-only ceiling: %w", err)
	}
	b.out.set("loadgen.ceiling_jobs_per_s", ceiling)
	if served := b.out.values["jobs_per_s"]; ceiling < 10*served {
		b.out.problem("client-only ceiling %.0f jobs/s is under ten times the service's %.0f jobs/s", ceiling, served)
	}

	digests := map[svcSpec]string{}
	for i := range runs {
		if runs[i].ok() {
			digests[jobs[i]] = runs[i].view.Digest
		}
	}
	return replayService(b, cal, set, jobs[:max(1, len(jobs)/replayShare)], digests)
}

// prime submits every spec of the warm set once and waits for all of
// them, filling the server's schedule cache.
func prime(base string, set []svcSpec) error {
	runs, _, err := driveClosedLoop(base, set)
	if err != nil {
		return fmt.Errorf("prime: %w", err)
	}
	for i := range runs {
		if !runs[i].ok() {
			return fmt.Errorf("prime %s: %v %s", set[i], runs[i].err, runs[i].view.Error)
		}
	}
	return nil
}

// honestyGate checks the server's own counters over the timed window:
// service-warm must hit the schedule cache on every timed job and never
// solve; service-cold must miss on every job and run one anneal solve
// each. Neither may coalesce jobs.
func honestyGate(o *outcome, warm bool, jobs int, before, after map[string]float64) {
	delta := func(name string) int { return int(after[name] - before[name]) }
	check := func(name string, want int) {
		if got := delta(name); got != want {
			o.problem("honesty gate: %s rose by %d over %d timed jobs, want %d", name, got, jobs, want)
		}
	}
	check("paradigmd_jobs_coalesced_total", 0)
	check("paradigmd_jobs_completed_total", jobs)
	if warm {
		check("sched_cache_hit_total", jobs)
		check("sched_cache_miss_total", 0)
		check("alloc_solves_total", jobs) // every one the "sched-cache" replay
		check("alloc_solve_sched_cache_total", jobs)
		return
	}
	check("sched_cache_hit_total", 0)
	check("sched_cache_miss_total", jobs)
	check("alloc_solve_anneal_total", jobs)
	check("alloc_cache_hit_total", 0)
}

// referenceDigests runs the checked specs in process with no caches and
// returns their result digests: every warm spec, or a seeded sample of
// the cold ones.
func referenceDigests(b *bench, cal *paradigm.Calibration, jobs []svcSpec, warm bool) (map[svcSpec]string, error) {
	var check []svcSpec
	if warm {
		seen := map[svcSpec]bool{}
		for _, s := range jobs {
			if !seen[s] {
				seen[s] = true
				check = append(check, s)
			}
		}
	} else {
		rng := rand.New(rand.NewSource(b.seed))
		for _, i := range rng.Perm(len(jobs))[:min(coldRefSample, len(jobs))] {
			check = append(check, jobs[i])
		}
	}
	refs := map[svcSpec]string{}
	for _, s := range check {
		p, err := s.lib().build(cal)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", s, err)
		}
		res, err := paradigm.RunContext(b.ctx, p, paradigm.NewCM5(s.Procs), cal, s.Procs)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", s, err)
		}
		refs[s] = res.Digest()
	}
	return refs, nil
}

// replayService re-runs the first jobs of the list in process through
// the calls paradigmd makes for each job — journal the submit and the
// running state, build the program, open the job's WAL, plan through the
// schedule cache and an exact-only allocation cache, commit each stage,
// generate code, simulate, digest, journal the outcome and collect the
// WAL — once without tracing and once with a span around every call.
func replayService(b *bench, cal *paradigm.Calibration, set, jobs []svcSpec, digests map[svcSpec]string) error {
	untraced, _, err := replayPass(b, cal, set, jobs, digests, nil, nil, "replay-untraced")
	if err != nil {
		return err
	}
	tr := newTracer()
	var c counters
	wall, mem, err := replayPass(b, cal, set, jobs, digests, tr, &c, "replay-traced")
	if err != nil {
		return err
	}
	b.out.perLayer(tr, &c, wall, untraced, mem)
	return b.writeSpans(tr)
}

// replayPass is one in-process replay. With a nil tracer it records
// nothing but the wall time; set is primed into fresh caches first.
func replayPass(b *bench, cal *paradigm.Calibration, set, jobs []svcSpec, digests map[svcSpec]string, tr *tracer, c *counters, name string) (time.Duration, memDelta, error) {
	ctx := b.ctx
	model := cal.Model()
	dir := filepath.Join(b.workDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return 0, memDelta{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, memDelta{}, err
	}
	defer os.RemoveAll(dir)
	// The daemon's caches, metrics fold and journal, as paradigmd
	// configures them.
	schedCache := paradigm.NewScheduleCache(256, 8)
	allocCache := paradigm.NewAllocCache(128)
	var (
		observer paradigm.Observer = paradigm.NewMetricsObserver(paradigm.NewMetrics())
		stages   *stageObserver
	)
	if tr != nil {
		stages = &stageObserver{c: c}
		observer = paradigm.MultiObserver(observer, stages)
	}
	journal, _, err := jobstore.OpenSharded(dir, 4, observer)
	if err != nil {
		return 0, memDelta{}, err
	}
	defer journal.Close()
	planOpts := []paradigm.Option{
		paradigm.WithObserver(observer),
		paradigm.WithAllocOptions(paradigm.AllocOptions{Cache: allocCache, CacheExactOnly: true}),
		paradigm.WithScheduleCache(schedCache),
	}
	for _, s := range set {
		p, err := s.lib().build(cal)
		if err != nil {
			return 0, memDelta{}, err
		}
		if _, _, err := paradigm.AllocateAndScheduleContext(ctx, p.G, model, s.Procs, planOpts...); err != nil {
			return 0, memDelta{}, fmt.Errorf("prime %s: %w", s, err)
		}
	}
	if stages != nil {
		stages.takeMarks()
		*c = counters{}
	}

	var mem *memWindow
	if tr != nil {
		mem = startMem()
	}
	t0 := time.Now()
	for i, s := range jobs {
		id := strconv.Itoa(i + 1)
		root := tr.begin(layerJob, i, noParent)
		sp := tr.begin(layerJobstore, i, root)
		err := journal.AppendSubmit(jobstore.Submit{ID: id, Program: s.Program, Size: s.Size, Procs: s.Procs, Tenant: "replay"})
		if err == nil {
			err = journal.AppendState(jobstore.State{ID: id, Status: jobstore.StatusRunning})
		}
		tr.end(sp)
		if err != nil {
			return 0, memDelta{}, err
		}

		sp = tr.begin(layerPrograms, i, root)
		p, err := s.lib().build(cal)
		tr.end(sp)
		if err != nil {
			return 0, memDelta{}, fmt.Errorf("replay %s: %w", s, err)
		}
		mp := paradigm.NewCM5(s.Procs)

		sp = tr.begin(layerCkpt, i, root)
		walPath := filepath.Join(dir, "job-"+id+".wal")
		wal, err := ckpt.Open(walPath)
		if err == nil {
			err = commit(wal, ckpt.StageMeta, func() ([]byte, error) {
				return ckpt.EncodeMeta(ckpt.Meta{Program: p.Name, Procs: s.Procs, Nodes: p.G.NumNodes(), Machine: mp})
			})
		}
		tr.end(sp)
		if err != nil {
			return 0, memDelta{}, err
		}

		planStart := time.Now()
		ar, sch, err := paradigm.AllocateAndScheduleContext(ctx, p.G, model, s.Procs, planOpts...)
		planEnd := time.Now()
		if err != nil {
			return 0, memDelta{}, fmt.Errorf("replay %s: %w", s, err)
		}
		if stages != nil {
			planSpans(tr, i, root, planStart, planEnd, stages.takeMarks())
		}

		sp = tr.begin(layerCkpt, i, root)
		err = commit(wal, ckpt.StageAlloc, func() ([]byte, error) { return ckpt.EncodeAlloc(ar) })
		if err == nil {
			err = commit(wal, ckpt.StageSched, func() ([]byte, error) { return ckpt.EncodeSchedule(sch) })
		}
		tr.end(sp)
		if err != nil {
			return 0, memDelta{}, err
		}

		sp = tr.begin(layerCodegen, i, root)
		streams, err := codegen.GenerateCtx(ctx, p, sch)
		tr.end(sp)
		if err != nil {
			return 0, memDelta{}, fmt.Errorf("replay %s: %w", s, err)
		}
		sp = tr.begin(layerCkpt, i, root)
		err = commit(wal, ckpt.StageCodegen, func() ([]byte, error) { return ckpt.EncodeStreams(streams) })
		tr.end(sp)
		if err != nil {
			return 0, memDelta{}, err
		}

		sp = tr.begin(layerSim, i, root)
		simRes, err := sim.RunCtx(ctx, p, streams, mp, sim.Options{Observer: observer})
		tr.end(sp)
		if err != nil {
			return 0, memDelta{}, fmt.Errorf("replay %s: %w", s, err)
		}

		sp = tr.begin(layerDigest, i, root)
		res := &paradigm.Result{Alloc: ar, Sched: sch, Sim: simRes, Predicted: sch.Makespan, Actual: simRes.Makespan}
		digest := res.Digest()
		tr.end(sp)

		sp = tr.begin(layerCkpt, i, root)
		err = commit(wal, ckpt.StageDone, func() ([]byte, error) {
			return ckpt.EncodeDone(ckpt.DoneState{Makespan: simRes.Makespan, Messages: simRes.Messages, NetworkBytes: simRes.NetworkBytes})
		})
		commits := wal.Len()
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
		tr.end(sp)
		if err != nil {
			return 0, memDelta{}, err
		}

		sp = tr.begin(layerJobstore, i, root)
		err = journal.AppendState(jobstore.State{ID: id, Status: jobstore.StatusDone, Phi: ar.Phi, Actual: simRes.Makespan, Digest: digest})
		tr.end(sp)
		if err != nil {
			return 0, memDelta{}, err
		}
		// The completed job's WAL is collected once its outcome is
		// journaled.
		sp = tr.begin(layerCkpt, i, root)
		err = os.Remove(walPath)
		tr.end(sp)
		tr.end(root)
		if err != nil {
			return 0, memDelta{}, err
		}

		if want, ok := digests[s]; ok && want != digest {
			b.out.problem("replay %s: digest %s, server %s", s, digest, want)
		}
		if c != nil {
			c.edges += edgeCount(p.G)
			c.countStreams(streams)
			c.countSim(simRes)
			c.commits += commits
		}
	}
	wall := time.Since(t0)
	if c != nil {
		c.appends += journal.Len()
	}
	var md memDelta
	if mem != nil {
		md = mem.stop(len(jobs))
	}
	return wall, md, nil
}

// commit encodes and commits one WAL stage, as paradigm's checkpointed
// stages do.
func commit(wal *ckpt.Log, stage string, encode func() ([]byte, error)) error {
	payload, err := encode()
	if err != nil {
		return fmt.Errorf("encode %s checkpoint: %w", stage, err)
	}
	return wal.Commit(stage, payload)
}

// planSpans splits one AllocateAndScheduleContext call at the cache
// events it emitted: the schedule-cache lookup (canonical hash and key),
// then on a hit the plan replay; on a miss the allocation cache's own
// hash, the solve (which ends with its AllocDone event), and the PSA.
// What the events leave unattributed stays in the plan span's self time.
func planSpans(tr *tracer, job, root int, start, end time.Time, marks []mark) {
	plan := tr.add(layerPlan, job, root, start, end)
	var schedAt, allocAt, doneAt time.Time
	hit := false
	for _, m := range marks {
		switch m.event {
		case "sched-cache":
			schedAt, hit = m.at, m.outcome == "hit"
		case "alloc-cache":
			allocAt = m.at
		case "alloc-done":
			if !hit {
				doneAt = m.at
			}
		}
	}
	if schedAt.IsZero() {
		return
	}
	tr.add(layerMDGHash, job, plan, start, schedAt)
	if hit {
		tr.add(layerReplay, job, plan, schedAt, end)
		return
	}
	solveFrom := schedAt
	if !allocAt.IsZero() {
		tr.add(layerMDGHash, job, plan, schedAt, allocAt)
		solveFrom = allocAt
	}
	if !doneAt.IsZero() {
		tr.add(layerAlloc, job, plan, solveFrom, doneAt)
		tr.add(layerPSA, job, plan, doneAt, end)
	}
}
