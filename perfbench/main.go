// Command perfbench is the repository's closed-loop benchmark. It drives
// the system only through its public surfaces — the root paradigm API
// and exported internal/* functions in process, and a paradigmd binary
// built from the working tree, run as a subprocess and driven over HTTP
// — and reports user-visible figures per workload (--trace 0) or
// per-layer figures from a separate traced run (--trace 1). See
// README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload run-cold --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --report --runs 5 --seed 1 --seconds 20
//	bash perfbench/run.sh --client-only --seed 1 --seconds 20
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads maps each workload name to its driver.
var workloads = map[string]func(*bench) error{
	"run-cold":     runCold,
	"solve-large":  solveLarge,
	"service-warm": func(b *bench) error { return serviceRun(b, true) },
	"service-cold": func(b *bench) error { return serviceRun(b, false) },
}

// workloadOrder is the report order.
var workloadOrder = []string{"run-cold", "solve-large", "service-warm", "service-cold"}

// bench is one benchmark run's configuration and accumulating outcome.
type bench struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string // holds the paradigmd binary
	workDir  string // scratch space for WALs and journals, removed at exit
	spanDir  string // where traced runs leave their spans
	ctx      context.Context
	out      *outcome
}

func (b *bench) daemonBin() string { return filepath.Join(b.binDir, "paradigmd") }

// writeSpans dumps the traced pass's spans next to the other scratch
// files, one JSON object per line.
func (b *bench) writeSpans(tr *tracer) error {
	if err := os.MkdirAll(b.spanDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d%s", b.workload, b.seed, spanFileSuffix)
	return tr.write(filepath.Join(b.spanDir, name))
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workload   = flag.String("workload", "", "workload: run-cold, solve-large, service-warm or service-cold")
		seed       = flag.Int64("seed", 1, "workload seed; the program sees only the inputs generated from it")
		seconds    = flag.Int("seconds", 20, "nominal run length; sizes each workload's fixed job list")
		trace      = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		root       = flag.String("root", ".", "repository root")
		binDir     = flag.String("bin", ".bench_build", "directory holding the built paradigmd binary")
		workDir    = flag.String("work", ".bench_build/work", "scratch directory for WALs and journals; traced runs leave spans in its traces/")
		report     = flag.Bool("report", false, "run every workload --runs times on consecutive seeds and print each metric's median and spread")
		runs       = flag.Int("runs", 5, "runs per workload in --report mode")
		only       = flag.String("workloads", strings.Join(workloadOrder, ","), "workloads --report covers")
		clientOnly = flag.Bool("client-only", false, "measure the closed-loop client alone against an instant stub server")
	)
	flag.Parse()
	if *report {
		dirs := []string{"--root", *root, "--bin", *binDir, "--work", *workDir}
		if err := runReport(strings.Split(*only, ","), *runs, *seed, *seconds, *trace, dirs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *clientOnly {
		_, jobs := svcWarmSpecs(*seed, *seconds)
		ceiling, err := stubCeiling(jobs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("client-only ceiling: %.1f jobs/s over %d jobs (%d connections x %d outstanding)\n",
			ceiling, len(jobs), clientConns, clientWindow)
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		binDir:  *binDir,
		workDir: filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
		spanDir: filepath.Join(*workDir, "traces"),
		ctx:     context.Background(), out: newOutcome(),
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d %s\n", *workload, *seed, *seconds, *trace, stamp(*root))
	err := os.MkdirAll(b.workDir, 0o755)
	if err == nil {
		err = run(b)
	}
	if rerr := os.RemoveAll(b.workDir); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range b.out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", p)
	}
	defs := endToEndMetrics
	if b.trace {
		defs = perLayerMetrics
	}
	res := result{
		Correct:   len(b.out.problems) == 0,
		Attempted: b.out.attempted,
		Failed:    b.out.failed,
		Metrics:   b.out.report(defs),
	}
	if !b.trace {
		fmt.Printf("# %d timed jobs; latency_tail_ms is p%.0f\n", b.out.samples, b.out.tail*100)
	}
	for _, d := range defs {
		fmt.Printf("# %-28s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// stamp identifies the code and machine a result came from: the git
// commit when the checkout has one, a digest of the Go sources and
// module files either way, the Go version and the CPU count.
func stamp(root string) string {
	return fmt.Sprintf("git=%s src=%s go=%s nproc=%d", gitSHA(root), sourceDigest(root), runtime.Version(), runtime.NumCPU())
}

// gitSHA reads HEAD from the repository's .git directory ("unknown"
// outside a git checkout).
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under root, in path
// order, skipping hidden directories.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
