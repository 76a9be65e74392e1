package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"paradigm"
)

// Every workload turns (seed, seconds) into a fixed job list. The list
// length comes from --seconds and a nominal rate measured on a 2-CPU
// Xeon, so the same arguments give the same jobs on every commit: a
// faster program finishes its list sooner instead of doing other work.
// Composition is stratified — each (program, procs) cell gets a fixed
// number of jobs whose sizes are drawn one per equal stratum of the
// size range — so seeds change the inputs without changing the mix.

// libSpec is one library job: a built-in program at a size on procs
// processors of the CM-5 model.
type libSpec struct {
	Program             string // cmm | strassen | pipeline
	N, Width, Depth     int
	Procs               int
	GraphSeed           int64 // solve-large only
	Layers, LayerWidth  int   // solve-large only
	FanIn, TransferSize int   // solve-large only
}

func (s libSpec) String() string {
	switch s.Program {
	case "pipeline":
		return fmt.Sprintf("pipeline-%d-w%d-d%d@p%d", s.N, s.Width, s.Depth, s.Procs)
	case "layered":
		return fmt.Sprintf("layered-%dx%d-s%d@p%d", s.Layers, s.LayerWidth, s.GraphSeed, s.Procs)
	}
	return fmt.Sprintf("%s-%d@p%d", s.Program, s.N, s.Procs)
}

// build constructs the job's program through the public builders.
func (s libSpec) build(src paradigm.LoopSource) (*paradigm.Program, error) {
	switch s.Program {
	case "cmm":
		return paradigm.ComplexMatMul(s.N, src)
	case "strassen":
		return paradigm.Strassen(s.N, src)
	case "pipeline":
		return paradigm.SyntheticPipeline(s.N, s.Width, s.Depth, src)
	}
	return nil, fmt.Errorf("unknown program %q", s.Program)
}

// svcSpec is one paradigmd job request.
type svcSpec struct {
	Program string `json:"program"`
	Size    int    `json:"size"`
	Procs   int    `json:"procs"`
}

func (s svcSpec) String() string { return fmt.Sprintf("%s-%d@p%d", s.Program, s.Size, s.Procs) }

func (s svcSpec) lib() libSpec { return libSpec{Program: s.Program, N: s.Size, Procs: s.Procs} }

// blocksFor sizes a list: enough blocks of blockJobs to fill seconds at
// the nominal rate, at least one.
func blocksFor(seconds int, rate float64, blockJobs int) int {
	return max(1, int(math.Ceil(float64(seconds)*rate/float64(blockJobs))))
}

// stratified draws k values from the grid lo, lo+step, ..., hi: the grid
// is cut into k equal strata and one value is drawn from each, so the
// values are distinct whenever k does not exceed the grid size.
func stratified(rng *rand.Rand, k, lo, hi, step int) []int {
	points := (hi-lo)/step + 1
	out := make([]int, k)
	for i := range out {
		a := i * points / k
		b := max((i+1)*points/k, a+1)
		out[i] = lo + step*min(a+rng.Intn(b-a), points-1)
	}
	return out
}

// Jobs per second of --seconds. The library rates are close to what
// the reference box sustains, so a run lasts about --seconds. The
// service lists are capped: paradigmd keeps every finished job's program
// and result in memory, about 0.3-0.6 MB each, so a service run splits
// its list over several daemon lives (svcRounds) and each daemon serves
// at most a few thousand jobs. The lists still leave more than 1,000
// jobs, so p99 has ten samples beyond it.
const (
	runColdRate    = 6.0 // jobs/s
	solveLargeRate = 1.0 // graphs/s
	svcWarmRate    = 400 // jobs/s
	svcWarmMaxJobs = 8000
	svcColdRate    = 110 // jobs/s
	svcColdMaxJobs = 2200
)

// runColdProcs are the system sizes every run-cold block covers.
var runColdProcs = []int{8, 16, 32, 64}

// Per-block job counts of each program at each run-cold system size.
const (
	runColdStrassen = 2
	runColdCMM      = 7
	runColdPipeline = 2
)

// runColdSpecs is the library user's cold path: distinct CMM, Strassen
// and synthetic-pipeline specs over procs 8..64, in seeded order.
func runColdSpecs(seed int64, seconds int) []libSpec {
	rng := rand.New(rand.NewSource(seed))
	perBlock := len(runColdProcs) * (runColdStrassen + runColdCMM + runColdPipeline)
	blocks := blocksFor(seconds, runColdRate, perBlock)
	combos := pipelineCombos()
	var specs []libSpec
	for _, procs := range runColdProcs {
		for _, n := range stratified(rng, blocks*runColdCMM, 32, 256, 1) {
			specs = append(specs, libSpec{Program: "cmm", N: n, Procs: procs})
		}
		for _, n := range stratified(rng, blocks*runColdStrassen, 32, 128, 2) {
			specs = append(specs, libSpec{Program: "strassen", N: n, Procs: procs})
		}
		for _, i := range stratified(rng, min(blocks*runColdPipeline, len(combos)), 0, len(combos)-1, 1) {
			c := combos[i]
			specs = append(specs, libSpec{Program: "pipeline", N: c[0], Width: c[1], Depth: c[2], Procs: procs})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// pipelineCombos lists every (n, width, depth) synthetic pipeline shape
// of the workload, ordered by work so strata group similar costs.
func pipelineCombos() [][3]int {
	var out [][3]int
	for _, n := range []int{32, 64} {
		for w := 2; w <= 8; w++ {
			for d := 2; d <= 4; d++ {
				out = append(out, [3]int{n, w, d})
			}
		}
	}
	work := func(c [3]int) int { return c[0] * c[0] * c[0] * c[1] * c[2] }
	sort.SliceStable(out, func(a, b int) bool { return work(out[a]) < work(out[b]) })
	return out
}

// Solve-large graph shape: layers of solveLargeWidth nodes, so the node
// count (plus START/STOP) spans 500..1,500.
const (
	solveLargeWidth     = 20
	solveLargeMinLayers = 25
	solveLargeMaxLayers = 75
	solveLargeFanIn     = 3
	solveLargeBytes     = 4096
	solveLargeProcs     = 64
)

// solveLargeSpecs is the decomposed-solve workload: seeded layered MDGs
// of 500..1,500 nodes with stratified sizes, in seeded order.
func solveLargeSpecs(seed int64, seconds int) []libSpec {
	rng := rand.New(rand.NewSource(seed))
	k := blocksFor(seconds, solveLargeRate, 1)
	k = min(k, solveLargeMaxLayers-solveLargeMinLayers+1)
	var specs []libSpec
	for _, layers := range stratified(rng, k, solveLargeMinLayers, solveLargeMaxLayers, 1) {
		specs = append(specs, libSpec{
			Program: "layered", Procs: solveLargeProcs, GraphSeed: rng.Int63(),
			Layers: layers, LayerWidth: solveLargeWidth, FanIn: solveLargeFanIn, TransferSize: solveLargeBytes,
		})
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// Service-warm spec set: CMM and Strassen specs primed before timing,
// so every timed job is a schedule-cache hit. Strassen runs on 4-5
// processors, where its solve takes milliseconds, to keep priming cheap;
// timed jobs never solve anyway.
var (
	svcWarmCMMProcs      = []int{4, 8, 16}
	svcWarmStrassenProcs = []int{4, 5}
)

const (
	svcWarmCMM               = 18
	svcWarmStrassen          = 6
	svcWarmMinN, svcWarmMaxN = 16, 48
)

// svcWarmSet draws the warm spec set.
func svcWarmSet(rng *rand.Rand) []svcSpec {
	var set []svcSpec
	for i, n := range stratified(rng, svcWarmCMM, svcWarmMinN, svcWarmMaxN, 1) {
		set = append(set, svcSpec{Program: "cmm", Size: n, Procs: svcWarmCMMProcs[i%len(svcWarmCMMProcs)]})
	}
	for i, n := range stratified(rng, svcWarmStrassen, svcWarmMinN, svcWarmMaxN, 2) {
		set = append(set, svcSpec{Program: "strassen", Size: n, Procs: svcWarmStrassenProcs[i%len(svcWarmStrassenProcs)]})
	}
	return set
}

// svcWarmSpecs returns the warm set and the timed job sequence: blocks
// of one seeded permutation of the set each, so every spec recurs
// equally often.
func svcWarmSpecs(seed int64, seconds int) (set, jobs []svcSpec) {
	rng := rand.New(rand.NewSource(seed))
	set = svcWarmSet(rng)
	blocks := min(blocksFor(seconds, svcWarmRate, len(set)), svcWarmMaxJobs/len(set))
	for b := 0; b < blocks; b++ {
		for _, i := range rng.Perm(len(set)) {
			jobs = append(jobs, set[i])
		}
	}
	return set, jobs
}

// Service-cold spec grid: every CMM size and system size in these
// ranges is a distinct spec.
const (
	svcColdMinN, svcColdMaxN         = 12, 84
	svcColdMinProcs, svcColdMaxProcs = 2, 32
)

// svcColdSpecs returns never-repeated specs in seeded order, so every
// job misses both server caches. Every system size gets the same number
// of jobs, with sizes stratified over the range.
func svcColdSpecs(seed int64, seconds int) []svcSpec {
	rng := rand.New(rand.NewSource(seed))
	procsCount := svcColdMaxProcs - svcColdMinProcs + 1
	jobs := min(svcColdMaxJobs, blocksFor(seconds, svcColdRate, 1))
	perProcs := min(svcColdMaxN-svcColdMinN+1, (jobs+procsCount-1)/procsCount)
	var specs []svcSpec
	for p := svcColdMinProcs; p <= svcColdMaxProcs; p++ {
		for _, n := range stratified(rng, perProcs, svcColdMinN, svcColdMaxN, 1) {
			specs = append(specs, svcSpec{Program: "cmm", Size: n, Procs: p})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}
