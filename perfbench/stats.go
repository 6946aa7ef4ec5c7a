package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of xs
// by the rule of Python's statistics.quantiles(xs, n=4) (its default
// "exclusive" method), so the spreads this program prints are the ones
// a reader recomputes from the raw values. A single value is its own
// quartiles; an empty slice gives NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest value with at least p% of the samples
// at or below it.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := nearestRank(n, p)
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail reports the highest percentile of xs, at most maxPct, that has
// at least ten samples beyond it, with that percentile and the sample
// count. With too few samples for any percentile on the ladder the
// maximum is reported as the 100th percentile, so a short run still
// states its worst case instead of a percentile it cannot support.
func tail(xs []float64, maxPct float64) (value, pct float64, n int) {
	s := sortedCopy(xs)
	n = len(s)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	for _, p := range tailLadder {
		if p <= maxPct && beyond(n, p) >= 10 {
			return percentile(s, p), p, n
		}
	}
	return s[n-1], 100, n
}

// beyond is how many of n ranked samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	return n - nearestRank(n, p)
}

// nearestRank is the 1-based rank of the p-th percentile of n samples,
// ceil(p·n/100), with a little slack so that a product like 99.9·10000
// that lands a rounding error above an integer does not skip a rank.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return rank
}

// openLoop accounts one open-loop request stream. Each request has a
// scheduled send time; latency is charged from that schedule, so time
// a request spends waiting behind a stalled one still counts, and the
// generator's own lateness (actual send minus schedule) is tracked
// separately as a check that the load was really offered. Times are in
// milliseconds from the start of the stream.
type openLoop struct {
	latencies []float64 // completion - schedule, successes only
	lags      []float64 // send - schedule, every request
	failed    int
}

// record adds one request: sched is when it was due, sent when the
// generator issued it, done when the answer arrived.
func (o *openLoop) record(sched, sent, done float64, ok bool) {
	lag := sent - sched
	if lag < 0 {
		lag = 0
	}
	o.lags = append(o.lags, lag)
	if !ok {
		o.failed++
		return
	}
	o.latencies = append(o.latencies, done-sched)
}

// attempted is the number of requests the stream issued.
func (o *openLoop) attempted() int { return len(o.lags) }

// backlogged reports whether the generator fell behind its schedule for
// good: the median lateness of the last quarter of requests exceeds
// limitMs. A server that keeps up shows only transient lateness; one
// that does not shows lateness that grows to the end of the run.
func (o *openLoop) backlogged(limitMs float64) bool {
	n := len(o.lags)
	if n == 0 {
		return false
	}
	q := n / 4
	if q < 1 {
		q = 1
	}
	return median(o.lags[n-q:]) > limitMs
}

// ladderStep is the outcome of one fixed-rate step of the sustained
// throughput search.
type ladderStep struct {
	rate      float64 // offered requests per second
	tailMs    float64 // latency at the step's tail percentile
	failed    int     // failed or refused requests
	backlog   bool    // the generator fell behind for good
	completed int
}

// meets reports whether the step stays within the latency limit with
// no failures and no growing backlog. A refused request counts as
// missing the limit.
func (s ladderStep) meets(limitMs float64) bool {
	return s.completed > 0 && s.failed == 0 && !s.backlog && s.tailMs <= limitMs
}

// sustainedRate is the highest rate of an ascending ladder whose step,
// and every step below it, meets the limit; 0 when the first fails.
// The search stops at the first miss: a higher rate that happens to
// pass after a failed one is noise, not capacity.
func sustainedRate(steps []ladderStep, limitMs float64) float64 {
	best := 0.0
	for _, s := range steps {
		if !s.meets(limitMs) {
			break
		}
		best = s.rate
	}
	return best
}

// sortBy sorts xs ascending by key, keeping equal keys in order.
func sortBy[T any](xs []T, key func(T) float64) {
	sort.SliceStable(xs, func(i, j int) bool { return key(xs[i]) < key(xs[j]) })
}
