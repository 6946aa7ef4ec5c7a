// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's own packages, checks that the
// outputs are correct, and prints every end-to-end metric with its
// unit. With -trace 1 it instead replays the workload through direct
// calls into each layer, records spans around those calls, and prints
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, after building with run.sh):
//
//	perfbench --workload fig4-lazy --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// why each was chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"xgftsim/internal/obs"
)

// workers bounds every pool the benchmark runs: grid cells, sampler
// parallelism and client connections. It matches the 2-CPU machines
// the benchmark is sized for, and is recorded in every result.
const workers = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a workload run receives from the command line.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string // where span files go, inside the checkout
}

// report is what a workload run hands back.
type report struct {
	setups []float64 // seconds, one per set-up repetition
	passes []float64 // seconds, one per measured pass of the fixed job
	// ops are per-operation latencies in milliseconds behind p50_ms (and
	// the printed p90): requests for a server workload, whole passes for a sweep
	// (the figure is the one answer a sweep's user waits for).
	ops       []float64
	peakRSSMB float64
	rssNote   string // how peakRSSMB was taken

	attempted, failed int64
	checks            []check

	info   []infoLine        // extra end-to-end figures, printed only
	layers map[string]metric // per-layer metrics of a traced run
	work   obs.Snapshot      // registry delta over the measured passes
}

// check is one named correctness check.
type check struct {
	name   string
	ok     bool
	detail string
	runs   int
}

// infoLine is a printed figure that is not part of the JSON result.
type infoLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// addCheck records one check outcome. Repeats of a named check (one
// per pass) fold into its entry, which stays failed once any repeat
// fails.
func (r *report) addCheck(name string, ok bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	folded := false
	for i := range r.checks {
		if c := &r.checks[i]; c.name == name {
			c.runs++
			if c.ok && !ok {
				c.detail = detail
			}
			c.ok = c.ok && ok
			folded = true
		}
	}
	if !folded {
		r.checks = append(r.checks, check{name, ok, detail, 1})
	}
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *report) addInfo(name string, value float64, unit, note string) {
	r.info = append(r.info, infoLine{name, value, unit, note})
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	why  string
	run  func(e env) (*report, error)
}

var workloads = []workload{
	{"fig4-lazy", "Fig. 4(d) sweep on 3456 endpoints: lazy multi-K path derivation and sampling, no table built", runFig4},
	{"faults-compiled", "failure sweep on the 288-endpoint Fig. 4(c) fabric: compile, delta repair and CSR evaluation", runFaults},
	{"flit-table1", "Table 1 saturation sweep plus adaptive-K rows: the flit event loop does the work", runFlit},
	{"serve-churn", "open-loop queries against the 1024-endpoint control plane while cables fail and heal", runServe},
}

// endToEnd lists the gated metrics every untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"sweep_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 replays the workload through traced layer calls and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload {%s}, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	e := env{seed: *seed, seconds: *seconds, traced: *trace == 1,
		outDir: filepath.Join(root, ".bench_build", "perfbench")}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := buildResult(rep, e.traced)
	printReport(stdout, w, e, rep, root)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// repoRoot finds the checkout root: the nearest directory upward from
// the working directory that holds the simulator's go.mod and this
// benchmark's directory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, "perfbench", "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout root (go.mod next to perfbench/) above the working directory")
		}
		dir = parent
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// buildResult turns a report into the printed JSON object: end-to-end
// metrics for an untraced run, per-layer metrics for a traced one.
func buildResult(rep *report, traced bool) result {
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	if res.Attempted < 1 {
		res.Attempted, res.Correct = 1, false
	}
	// JSON has no NaN: a metric that could not be measured (an empty
	// sample) is reported as 0 and fails the run.
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
			res.Failed++
			res.Correct = false
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if traced {
		for _, m := range perLayer {
			put(m.name, m.unit, rep.layers[m.name].Value)
		}
		return res
	}
	vals := map[string]float64{
		"sweep_s":     median(rep.passes),
		"setup_s":     median(rep.setups),
		"peak_rss_mb": rep.peakRSSMB,
		"p50_ms":      median(rep.ops),
	}
	for _, m := range endToEnd {
		put(m.name, m.unit, vals[m.name])
	}
	return res
}

// printReport writes the human-readable part of the output: provenance,
// every metric with its unit, the checks and the work counts.
func printReport(w io.Writer, wl *workload, e env, rep *report, root string) {
	fmt.Fprintf(w, "perfbench %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "provenance: source %s, %s, GOMAXPROCS %d, nproc %d, workers %d, seed %d, setups %d, passes %d, trace %v\n",
		sourceID(root), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), workers, e.seed,
		len(rep.setups), len(rep.passes), e.traced)
	if !e.traced {
		q1, q2, q3 := quartiles(rep.passes)
		fmt.Fprintf(w, "  %-22s %12.4f s     (median of %d passes; quartiles %.4f %.4f %.4f)\n", "sweep_s", q2, len(rep.passes), q1, q2, q3)
		fmt.Fprintf(w, "  %-22s %12.4f s     (median of %d set-ups)\n", "setup_s", median(rep.setups), len(rep.setups))
		fmt.Fprintf(w, "  %-22s %12.1f MB    (%s)\n", "peak_rss_mb", rep.peakRSSMB, rep.rssNote)
		p90, pct, n := tail(rep.ops, 90)
		fmt.Fprintf(w, "  %-22s %12.4f ms    (median of %d ops)\n", "p50_ms", median(rep.ops), n)
		fmt.Fprintf(w, "  %-22s %12.4f ms    (not gated; p%g of %d ops: p90, or the highest percentile below it with >= 10 ops beyond)\n", "p90_ms", p90, pct, n)
	}
	frac := 0.0
	if rep.attempted > 0 {
		frac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "  %-22s %12.6f      (%d failed of %d attempted)\n", "fail_frac", frac, rep.failed, rep.attempted)
	for _, l := range rep.info {
		fmt.Fprintf(w, "  %-22s %12.4f %-5s %s\n", l.name, l.value, l.unit, l.note)
	}
	for _, c := range rep.checks {
		status := "ok  "
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(w, "check %s %s: %s (x%d)\n", status, c.name, c.detail, c.runs)
	}
	if len(rep.work) > 0 {
		fmt.Fprintf(w, "work counts (registry delta over the measured passes):")
		for _, k := range workCounters {
			fmt.Fprintf(w, " %s=%d", k, counterValue(rep.work, k))
		}
		fmt.Fprintln(w)
	}
	if e.traced {
		for _, m := range perLayer {
			v := rep.layers[m.name]
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", m.name, v.Value, m.unit)
		}
	}
}

// sourceID names the code measured: the VCS revision when the binary
// was built inside a git checkout, otherwise a digest of the module's
// Go sources (benchmark checkouts are plain file trees).
func sourceID(root string) string {
	if rev := vcsRevision(); rev != "" {
		return "commit " + rev
	}
	d, err := sourceDigest(root)
	if err != nil {
		return "unknown"
	}
	return "sha256 " + d
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// workCounters are the registry counters that show which layers a
// workload exercised.
var workCounters = []string{
	"core.compiles", "core.compiled_pairs", "core.delta_patches", "core.delta_patched_pairs",
	"flow.pairs_evaluated", "flow.compile_fallback_amortized", "flow.repair_patched", "flow.repair_lazy",
	"flit.runs", "flit.msgs_unroutable", "flit.wedges",
	"serve.queries", "serve.events_accepted", "serve.table_swaps",
}

// counterValue reads an integer counter or gauge out of a registry
// snapshot; 0 when absent.
func counterValue(s obs.Snapshot, name string) int64 {
	if v, ok := s[name].(int64); ok {
		return v
	}
	return 0
}

// measureWork runs f and returns the registry delta it caused.
func measureWork(f func()) obs.Snapshot {
	prev := obs.Default().Snapshot()
	f()
	return obs.Default().Delta(prev)
}

// addWork folds d into acc counter by counter.
func addWork(acc, d obs.Snapshot) obs.Snapshot {
	if acc == nil {
		acc = obs.Snapshot{}
	}
	for _, k := range workCounters {
		if v, ok := d[k].(int64); ok {
			prev, _ := acc[k].(int64)
			acc[k] = prev + v
		}
	}
	return acc
}

// layersFromWork copies the work counters into per-layer metrics.
func layersFromWork(layers map[string]metric, work obs.Snapshot) {
	for _, k := range workCounters {
		if _, listed := perLayerUnits[k]; listed {
			layers[k] = metric{float64(counterValue(work, k)), "count"}
		}
	}
}

// timeIt runs f and returns its wall time in seconds.
func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// repeatSetup runs f once untimed, then n times timed, and returns each
// timed duration in seconds. The untimed run takes the process's first
// heap growth, whose page faults swing by several times between runs on
// a shared machine and would otherwise dominate a set-up of a few
// milliseconds.
func repeatSetup(n int, f func()) []float64 {
	f()
	out := make([]float64, n)
	for i := range out {
		runtime.GC()
		out[i] = timeIt(f)
	}
	return out
}

// minPasses is the fewest passes a sweep measures, however long they
// take: the reported figures are medians over passes, and one pass
// would leave each of them a single draw.
const minPasses = 2

// passLoop runs pass until the measurement window is spent and at least
// minPasses times, and returns each pass's wall time in seconds and the
// peak resident set of each in MB. Before each pass, untimed, it
// returns the previous pass's garbage to the OS and restarts the
// kernel's resident high-water mark, so each peak is that pass's own.
// resetOK is false when the mark could not be restarted; the peaks are
// then the process's running peak.
func passLoop(seconds float64, pass func()) (times, peaksMB []float64, resetOK bool) {
	resetOK = true
	start := time.Now()
	for len(times) < minPasses || time.Since(start).Seconds() < seconds {
		debug.FreeOSMemory() // collects, then returns the free pages
		resetOK = resetPeakRSS() && resetOK
		times = append(times, timeIt(pass))
		peaksMB = append(peaksMB, peakRSSMB())
	}
	return times, peaksMB, resetOK
}

// resetPeakRSS restarts the process's resident high-water mark (the
// value getrusage reports) at its current resident set, through Linux's
// per-process clear_refs control (value 5); false when that is not
// available.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// measurePasses runs a sweep's pass. Untraced, it repeats the pass
// until the window is spent, each pass also being the sweep's one
// operation, and reports the median of the passes' peak resident sets
// (the process's peak when the per-pass mark cannot be restarted).
// Traced, it runs one pass as the reference the replay is checked and
// timed against.
func measurePasses(rep *report, e env, pass func()) {
	if e.traced {
		rep.passes = []float64{timeIt(pass)}
		return
	}
	var peaks []float64
	var resetOK bool
	rep.passes, peaks, resetOK = passLoop(e.seconds, pass)
	for _, p := range rep.passes {
		rep.ops = append(rep.ops, p*1000)
	}
	if resetOK {
		rep.peakRSSMB = median(peaks)
		rep.rssNote = fmt.Sprintf("median of %d per-pass peaks", len(peaks))
	} else {
		rep.peakRSSMB = peakRSSMB()
		rep.rssNote = "process peak: the per-pass mark could not be restarted"
	}
}

// finishSweepTrace records the per-layer metrics every traced sweep
// shares — sampler self time, cell times, the tracing overhead (the
// replay's wall time minus the untraced pass), span count and work
// counts — prints the self times, and writes the spans.
func finishSweepTrace(rep *report, e env, name string, spans []span, sum map[string]*spanStats, ct *cellTimes, wall float64) error {
	l := rep.layers
	if st := sum["stats.sampler"]; st != nil {
		l["stats.sampler_self_s"] = metric{float64(st.self) / 1e9, "s"}
	}
	cellLayers(l, ct, wall)
	l["trace.overhead_s"] = metric{wall - rep.passes[0], "s"}
	l["trace.spans"] = metric{float64(len(spans)), "count"}
	layersFromWork(l, rep.work)
	printSelfTimes(rep, sum)
	return writeSpans(filepath.Join(e.outDir, fmt.Sprintf("spans-%s-%d.jsonl", name, e.seed)), spans)
}
