package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2.5, 9, 4, 4, 7, 1, 8}, 2.5, 4, 8},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3}); m != 3 {
		t.Errorf("odd median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so tail must sort
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n       int
		maxPct  float64
		value   float64
		pct     float64
		comment string
	}{
		{1000, 99, 990, 99, "p99 has exactly 10 samples beyond it"},
		{999, 99, 950, 95, "p99 would have 9 beyond, so p95 is the highest supported"},
		{10000, 99, 9900, 99, "p99.9 qualifies but the caller caps at p99"},
		{10000, 100, 9990, 99.9, "uncapped, p99.9 has 10 beyond"},
		{25, 99, 13, 50, "only the median has 10 beyond"},
		{5, 99, 5, 100, "too few samples: the maximum is reported"},
	}
	for _, c := range cases {
		v, p, n := tail(ramp(c.n), c.maxPct)
		if v != c.value || p != c.pct || n != c.n {
			t.Errorf("n=%d cap=%v: tail = (%v, p%v, %d), want (%v, p%v, %d): %s",
				c.n, c.maxPct, v, p, n, c.value, c.pct, c.n, c.comment)
		}
	}
	if v, _, n := tail(nil, 99); !math.IsNaN(v) || n != 0 {
		t.Errorf("tail(nil) = %v, %d", v, n)
	}
}

func TestOpenLoopChargesFromSchedule(t *testing.T) {
	var o openLoop
	// Due at 0, sent on time, answered at 2: latency 2, lag 0.
	o.record(0, 0, 2, true)
	// Due at 1 but the generator was stuck behind the first request
	// until 2: lag 1, and the latency counts from 1, not from 2.
	o.record(1, 2, 3, true)
	// A failed request adds lateness but no latency.
	o.record(2, 2.5, 9, false)
	// A send recorded before its due time is not negative lateness.
	o.record(3, 2.9, 3.5, true)
	if got := o.latencies; len(got) != 3 || got[0] != 2 || got[1] != 2 || got[2] != 0.5 {
		t.Errorf("latencies = %v, want [2 2 0.5]", got)
	}
	if got := o.lags; len(got) != 4 || got[0] != 0 || got[1] != 1 || got[2] != 0.5 || got[3] != 0 {
		t.Errorf("lags = %v, want [0 1 0.5 0]", got)
	}
	if o.failed != 1 || o.attempted() != 4 {
		t.Errorf("failed %d attempted %d, want 1 and 4", o.failed, o.attempted())
	}
}

func TestOpenLoopBacklog(t *testing.T) {
	var steady, growing openLoop
	for i := 0; i < 100; i++ {
		sched := float64(i)
		lag := 0.0
		if i == 30 {
			lag = 50 // one transient stall
		}
		steady.record(sched, sched+lag, sched+lag+1, true)
		growing.record(sched, sched+float64(i)*0.2, sched+float64(i)*0.2+1, true)
	}
	if steady.backlogged(5) {
		t.Error("a transient stall was reported as a growing backlog")
	}
	if !growing.backlogged(5) {
		t.Error("lateness growing to the end of the run was not reported as a backlog")
	}
}

func TestSustainedRateLadder(t *testing.T) {
	ok := func(rate float64) ladderStep { return ladderStep{rate: rate, tailMs: 3, completed: 100} }
	cases := []struct {
		name  string
		steps []ladderStep
		want  float64
	}{
		{"all pass", []ladderStep{ok(1000), ok(2000), ok(4000)}, 4000},
		{"tail over limit", []ladderStep{ok(1000), ok(2000), {rate: 4000, tailMs: 12, completed: 100}}, 2000},
		{"refusals miss the limit", []ladderStep{ok(1000), {rate: 2000, tailMs: 1, failed: 1, completed: 99}}, 1000},
		{"backlog misses the limit", []ladderStep{ok(1000), {rate: 2000, tailMs: 1, backlog: true, completed: 100}}, 1000},
		{"a pass after a miss does not count", []ladderStep{ok(1000), {rate: 2000, tailMs: 20, completed: 100}, ok(4000)}, 1000},
		{"first step fails", []ladderStep{{rate: 1000, tailMs: 20, completed: 100}, ok(2000)}, 0},
		{"nothing completed", []ladderStep{{rate: 1000}}, 0},
	}
	for _, c := range cases {
		if got := sustainedRate(c.steps, 10); got != c.want {
			t.Errorf("%s: sustainedRate = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "child", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "child", Start: 95, End: 120}, // runs past the parent
		{ID: 6, Parent: 4, Name: "grandchild", Start: 61, End: 69},
	}
	sum := summarize(spans)
	if got := sum["parent"].self; got != 100-40-10-5 {
		t.Errorf("parent self = %d, want 45", got)
	}
	if got := sum["child"]; got.count != 4 || got.total != 20+30+10+25 || got.self != 20+30+2+25 {
		t.Errorf("child stats = %+v, want count 4, total 85, self 77", *got)
	}
	if got := sum["grandchild"].self; got != 8 {
		t.Errorf("grandchild self = %d, want 8", got)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", 0)
	sp.end()
	if len(tr.snapshot()) != 0 {
		t.Error("a nil tracer recorded spans")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json at the root of
// the repository in step with the workloads and metrics this program
// prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestBuildResultReportsEveryListedMetric(t *testing.T) {
	rep := &report{setups: []float64{1, 2, 3}, passes: []float64{2}, ops: []float64{2000}, peakRSSMB: 10,
		attempted: 4, layers: map[string]metric{"core.select_ns": {5, "ns"}}}
	res := buildResult(rep, false)
	if len(res.Metrics) != len(endToEnd) || !res.Correct || res.Attempted != 4 {
		t.Errorf("untraced result = %+v", res)
	}
	if res.Metrics["setup_s"].Value != 2 || res.Metrics["p50_ms"].Value != 2000 {
		t.Errorf("setup_s %v p50_ms %v, want 2 and 2000", res.Metrics["setup_s"], res.Metrics["p50_ms"])
	}
	res = buildResult(rep, true)
	if len(res.Metrics) != len(perLayer) || res.Metrics["core.select_ns"].Value != 5 {
		t.Errorf("traced result has %d metrics, core.select_ns %v", len(res.Metrics), res.Metrics["core.select_ns"])
	}
}

func TestBuildResultFailsOnUnmeasuredMetric(t *testing.T) {
	rep := &report{setups: []float64{1}, passes: []float64{2}, peakRSSMB: 10, attempted: 3}
	res := buildResult(rep, false)
	if res.Correct || res.Failed != 1 || res.Metrics["p50_ms"].Value != 0 {
		t.Errorf("empty latency sample: result %+v, want p50_ms reported as 0 and the run failed", res)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not encode: %v", err)
	}
}

func TestPassLoopRunsAtLeastMinPasses(t *testing.T) {
	calls := 0
	times, peaks, _ := passLoop(1e-9, func() { calls++ })
	if calls != minPasses || len(times) != minPasses || len(peaks) != minPasses {
		t.Errorf("a spent window ran %d passes (%d times, %d peaks), want %d", calls, len(times), len(peaks), minPasses)
	}
	for i, p := range peaks {
		if !(p > 0) {
			t.Errorf("pass %d peak resident set %v MB, want > 0", i, p)
		}
	}
}
