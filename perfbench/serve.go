package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xgftsim/internal/core"
	"xgftsim/internal/serve"
	"xgftsim/internal/topology"
)

// The serve-churn fabric: the Figure 4(b) tree, 1024 endpoints,
// disjoint routing with K = 4 paths per pair, compiled at boot.
const (
	serveFabric = "fig4b"
	serveXGFT   = "3;8,8,16;1,8,8"
	serveScheme = "disjoint"
	serveK      = 4
	serveSeed   = 2012

	baseRate     = 1000.0 // open-loop rate behind p50_ms
	highRate     = 8000.0 // second fixed rate, reported for comparison
	latencyLimit = 10.0   // ms, the p99 limit of the sustained-rate search
	backlogLimit = 5.0    // ms of generator lateness that marks a backlog
	churnPeriod  = 100 * time.Millisecond
	stormEvents  = 16 // fault events per storm pass (half fail, half heal)
	sampleEvery  = 16 // every 16th path answer is checked against the faults
	batchPairs   = 256
)

// ladderRates are the offered rates of the sustained-throughput search.
var ladderRates = []float64{2000, 4000, 8000, 12000, 16000, 24000}

// server is one booted in-process control plane on a loopback port.
type server struct {
	s      *serve.Server
	hs     *http.Server
	served chan error
	dir    string
	url    string
	cancel context.CancelFunc
}

// bootServer builds the server (compiling the fabric's table), starts
// its repair worker and HTTP listener, and returns once the first path
// query has been answered. wrap, when non-nil, wraps the handler.
func bootServer(outDir string, wrap func(http.Handler) http.Handler) (*server, error) {
	dir, err := os.MkdirTemp(outDir, "serve-journal-")
	if err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Config{
		Fabrics: []serve.FabricSpec{{Name: serveFabric, XGFT: serveXGFT, Scheme: serveScheme, K: serveK, Seed: serveSeed}},
		Dir:     dir,
	})
	if err != nil {
		_ = os.RemoveAll(dir) // best effort; it lies under .bench_build
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		s.Close()
		_ = os.RemoveAll(dir) // best effort; it lies under .bench_build
		return nil, err
	}
	h := s.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	sv := &server{s: s, hs: &http.Server{Handler: h}, served: make(chan error, 1), dir: dir,
		url: "http://" + ln.Addr().String(), cancel: cancel}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	c := newClient(1)
	defer c.CloseIdleConnections()
	if _, err := getPath(c, sv.url, 0, 1); err != nil {
		sv.close()
		return nil, fmt.Errorf("first query: %w", err)
	}
	return sv, nil
}

// close stops the listener, waits for it to return, stops the repair
// worker and removes the journal directory.
func (sv *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A Shutdown that times out leaves connections to the Close below;
	// Serve returns either way.
	if err := sv.hs.Shutdown(ctx); err != nil {
		sv.hs.Close()
	}
	<-sv.served
	sv.cancel()
	sv.s.Close()
	_ = os.RemoveAll(sv.dir) // best effort; it lies under .bench_build
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   10 * time.Second,
	}
}

// pathAnswer is the part of a path answer the checks read.
type pathAnswer struct {
	Src          int    `json:"src"`
	Dst          int    `json:"dst"`
	Paths        []int  `json:"paths"`
	Gen          uint64 `json:"gen"`
	Disconnected bool   `json:"disconnected"`
}

var errStatus = errors.New("non-2xx answer")

// getPath asks for one pair's paths.
func getPath(c *http.Client, url string, src, dst int) (pathAnswer, error) {
	var a pathAnswer
	body, code, err := do(c, "GET", url+"/fabrics/"+serveFabric+"/path?src="+strconv.Itoa(src)+"&dst="+strconv.Itoa(dst), nil)
	if err != nil {
		return a, err
	}
	if code != http.StatusOK {
		return a, fmt.Errorf("%w: %d", errStatus, code)
	}
	return a, json.Unmarshal(body, &a)
}

// do sends one request and returns the body and status.
func do(c *http.Client, method, url string, body []byte) ([]byte, int, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// mix64 is splitmix64: request i's kind and pair derive from (seed, i)
// alone, so the same seed offers the same request sequence however the
// two client goroutines interleave.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// phaseResult is one open-loop phase's outcome.
type phaseResult struct {
	ol        openLoop
	pathLat   []float64 // latencies of the single-pair path queries alone
	throttled int
	samples   []pathAnswer
	events    []churnEvent
	stateMs   []float64
	opFailed  int // failed fault posts, state polls or convergence probes
}

// churnEvent is one admitted fault event: its sequence number, the
// cable it names, whether it failed or healed it, and how long after
// the ack a path answer first carried its generation.
type churnEvent struct {
	seq        uint64
	node       int
	port       int
	fail       bool
	convergeMs float64 // ms; negative when it never converged
}

// loadGen offers the open-loop query mix to one server.
type loadGen struct {
	url    string
	n      int // endpoints
	seed   int64
	cables [][][2]int // churnable switch cables (child node, port) per level
}

// request kinds of the mix: 90 path, 5 batch, 5 maxload in 100.
func (g *loadGen) kind(h uint64) int {
	switch r := h % 100; {
	case r < 90:
		return 0
	case r < 95:
		return 1
	}
	return 2
}

var maxloadPatterns = []string{"shift", "random", "bitcomp"}

// issue sends request i and reports its kind, whether it succeeded,
// whether it was refused with 429, and, for sampled path queries, the
// answer.
func (g *loadGen) issue(c *http.Client, i int64, buf *bytes.Buffer) (kind int, ok, throttled bool, ans *pathAnswer) {
	h := mix64(uint64(g.seed)*0x9e3779b97f4a7c15 ^ uint64(i))
	var body []byte
	var code int
	var err error
	kind = g.kind(h)
	switch kind {
	case 0:
		src, dst := int(mix64(h)%uint64(g.n)), int(mix64(h+1)%uint64(g.n))
		url := g.url + "/fabrics/" + serveFabric + "/path?src=" + strconv.Itoa(src) + "&dst=" + strconv.Itoa(dst)
		body, code, err = do(c, "GET", url, nil)
		if err == nil && code == http.StatusOK && i%sampleEvery == 0 && src != dst {
			var a pathAnswer
			if json.Unmarshal(body, &a) != nil {
				return kind, false, false, nil
			}
			ans = &a
		}
	case 1:
		buf.Reset()
		buf.WriteString(`{"pairs":[`)
		x := h
		for p := 0; p < batchPairs; p++ {
			if p > 0 {
				buf.WriteByte(',')
			}
			x = mix64(x)
			fmt.Fprintf(buf, "[%d,%d]", x%uint64(g.n), (x>>32)%uint64(g.n))
		}
		fmt.Fprintf(buf, `],"k":%d}`, serveK)
		_, code, err = do(c, "POST", g.url+"/fabrics/"+serveFabric+"/paths", buf.Bytes())
	default:
		x := mix64(h)
		url := fmt.Sprintf("%s/fabrics/%s/maxload?pattern=%s&arg=%d", g.url, serveFabric,
			maxloadPatterns[x%3], 1+(x>>8)%uint64(g.n-1))
		_, code, err = do(c, "GET", url, nil)
	}
	if err != nil {
		return kind, false, false, nil
	}
	return kind, code == http.StatusOK, code == http.StatusTooManyRequests, ans
}

// phaseSpec is one open-loop phase: its offered rate and length, the
// index of its first request (phases of one run draw disjoint
// requests), whether cables churn meanwhile, and how many GET /state
// polls fall inside it.
type phaseSpec struct {
	rate       float64
	dur        time.Duration
	first      int64
	churn      bool
	statePolls int
}

// runPhase offers the mix at p.rate for p.dur over two connections
// while, optionally, a cable fails or heals every churnPeriod and an
// operator polls GET /state at evenly spaced points. Latency is charged
// from each request's scheduled send time.
func (g *loadGen) runPhase(p phaseSpec, churnSeed int64) phaseResult {
	var res phaseResult
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	var wg sync.WaitGroup
	var churnFailed, stateFailed int
	if p.churn {
		wg.Add(1)
		go func() { defer wg.Done(); res.events, churnFailed = g.churn(ctx, churnSeed) }()
	}
	if p.statePolls > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); res.stateMs, stateFailed = g.pollState(ctx, start, p.dur, p.statePolls) }()
	}

	type rec struct {
		sched, sent, done float64
		ok                bool
		kind              int
	}
	interval := float64(time.Second) / p.rate
	total := int64(p.rate * p.dur.Seconds())
	var tick atomic.Int64
	recs := make([][]rec, workers)
	samples := make([][]pathAnswer, workers)
	throttled := make([]int, workers)
	client := newClient(workers)
	var lw sync.WaitGroup
	for w := 0; w < workers; w++ {
		lw.Add(1)
		go func(w int) {
			defer lw.Done()
			var buf bytes.Buffer
			for {
				i := tick.Add(1) - 1
				if i >= total {
					return
				}
				sched := time.Duration(float64(i) * interval)
				if d := sched - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				sent := time.Since(start)
				kind, ok, thr, ans := g.issue(client, p.first+i, &buf)
				done := time.Since(start)
				recs[w] = append(recs[w], rec{ms(sched), ms(sent), ms(done), ok, kind})
				if thr {
					throttled[w]++
				}
				if ans != nil {
					samples[w] = append(samples[w], *ans)
				}
			}
		}(w)
	}
	lw.Wait()
	cancel()
	wg.Wait()
	client.CloseIdleConnections()
	res.opFailed = churnFailed + stateFailed
	var all []rec
	for w := range recs {
		all = append(all, recs[w]...)
		res.samples = append(res.samples, samples[w]...)
		res.throttled += throttled[w]
	}
	sortBy(all, func(r rec) float64 { return r.sched })
	for _, r := range all {
		res.ol.record(r.sched, r.sent, r.done, r.ok)
		if r.ok && r.kind == 0 {
			res.pathLat = append(res.pathLat, r.done-r.sched)
		}
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cable picks the i-th seeded switch cable, alternating between the
// tree's cable levels so every run fails the same mix of lower and
// upper cables whatever the seed.
func (g *loadGen) cable(seed int64, i uint64) [2]int {
	lv := g.cables[i%uint64(len(g.cables))]
	return lv[mix64(uint64(seed)*0x2545f4914f6cdd1d+i)%uint64(len(lv))]
}

// churn fails a seeded switch cable, then heals it one period later,
// until ctx ends, waiting after each ack for the first path answer at
// the event's generation. It leaves the fabric healed.
func (g *loadGen) churn(ctx context.Context, seed int64) (events []churnEvent, failed int) {
	c := newClient(1)
	defer c.CloseIdleConnections()
	tk := time.NewTicker(churnPeriod)
	defer tk.Stop()
	var cur [2]int
	down := false
	for i := uint64(0); ; {
		if !down {
			select {
			case <-ctx.Done():
				return events, failed
			case <-tk.C:
			}
			cur = g.cable(seed, i)
			i++
		} else {
			select {
			case <-ctx.Done():
			case <-tk.C:
			}
		}
		ev, err := g.postFault(c, cur, !down)
		if err != nil {
			failed++
			if ctx.Err() != nil {
				return events, failed
			}
			continue
		}
		events = append(events, ev)
		if ev.convergeMs < 0 {
			failed++
		}
		down = !down
	}
}

// postFault posts one cable event and waits, on the same connection,
// until a path answer carries the acked generation. The probe queries
// back to back: a sleeping prober's wake-up latency on a shared VM
// swings the measured time more than the probe's own CPU does.
func (g *loadGen) postFault(c *http.Client, cable [2]int, fail bool) (churnEvent, error) {
	op := "heal"
	if fail {
		op = "fail"
	}
	body := fmt.Sprintf(`{"op":%q,"kind":"cable","node":%d,"port":%d}`, op, cable[0], cable[1])
	b, code, err := do(c, "POST", g.url+"/fabrics/"+serveFabric+"/faults", []byte(body))
	if err != nil {
		return churnEvent{}, err
	}
	if code != http.StatusAccepted {
		return churnEvent{}, fmt.Errorf("%w: fault post %d", errStatus, code)
	}
	acked := time.Now()
	var ack struct {
		Seq uint64 `json:"seq"`
	}
	if err := json.Unmarshal(b, &ack); err != nil {
		return churnEvent{}, err
	}
	ev := churnEvent{seq: ack.Seq, node: cable[0], port: cable[1], fail: fail, convergeMs: -1}
	for time.Since(acked) < 5*time.Second {
		a, err := getPath(c, g.url, 0, g.n-1)
		if err != nil {
			return ev, nil
		}
		if a.Gen >= ack.Seq {
			ev.convergeMs = ms(time.Since(acked))
			break
		}
	}
	return ev, nil
}

// pollState is the operator's low-rate GET /state poll, which
// recomputes the served table's checksum on every call. The n polls
// fall at fixed fractions of the phase, so every run takes the same
// number at the same points.
func (g *loadGen) pollState(ctx context.Context, start time.Time, dur time.Duration, n int) (lat []float64, failed int) {
	c := newClient(1)
	defer c.CloseIdleConnections()
	for k := 1; k <= n; k++ {
		at := start.Add(dur * time.Duration(k) / time.Duration(n+1))
		select {
		case <-ctx.Done():
			return lat, failed
		case <-time.After(time.Until(at)):
		}
		t0 := time.Now()
		_, code, err := do(c, "GET", g.url+"/fabrics/"+serveFabric+"/state", nil)
		if err != nil || code != http.StatusOK {
			failed++
			continue
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat, failed
}

// storm posts stormEvents fault events back to back — fail half that
// many distinct seeded cables, then heal them — each awaited until
// served, and returns the wall time in seconds.
func (g *loadGen) storm(seed int64) (float64, []churnEvent, int) {
	c := newClient(1)
	defer c.CloseIdleConnections()
	var picked [][2]int
	seen := map[[2]int]bool{}
	for i := uint64(0); len(picked) < stormEvents/2; i++ {
		if cb := g.cable(seed, i); !seen[cb] {
			seen[cb] = true
			picked = append(picked, cb)
		}
	}
	var events []churnEvent
	failed := 0
	t0 := time.Now()
	for _, fail := range []bool{true, false} {
		for _, cb := range picked {
			ev, err := g.postFault(c, cb, fail)
			if err != nil || ev.convergeMs < 0 {
				failed++
			}
			if err == nil {
				events = append(events, ev)
			}
		}
	}
	return time.Since(t0).Seconds(), events, failed
}

// switchCables lists, per tree level, every cable whose lower end is a
// switch: failing one never disconnects a pair (every processor keeps
// its single uplink), so every query stays answerable.
func switchCables(t *topology.Topology) [][][2]int {
	var out [][][2]int
	for n := 0; n < t.NumNodes(); n++ {
		id := topology.NodeID(n)
		lv := t.Level(id)
		if lv == 0 || t.NumParents(id) == 0 {
			continue
		}
		for len(out) < lv {
			out = append(out, nil)
		}
		for p := 0; p < t.NumParents(id); p++ {
			out[lv-1] = append(out[lv-1], [2]int{n, p})
		}
	}
	return out
}

// faultOracle answers which links were down at a served generation,
// from the log of admitted events: each event flips one cable, and a
// generation reflects every event up to its sequence number.
type faultOracle struct {
	t      *topology.Topology
	events []churnEvent // ascending seq
}

func (o *faultOracle) downAt(gen uint64) map[topology.LinkID]bool {
	failed := map[[2]int]int{}
	for _, ev := range o.events {
		if ev.seq > gen {
			break
		}
		k := [2]int{ev.node, ev.port}
		if ev.fail {
			failed[k]++
		} else if failed[k] > 0 {
			failed[k]--
		}
	}
	fs := topology.NewFaultSet(o.t)
	for k, c := range failed {
		if c > 0 {
			if err := fs.FailCable(topology.NodeID(k[0]), k[1]); err != nil {
				panic(fmt.Sprintf("cable %v from switchCables: %v", k, err)) // the list is built from t
			}
		}
	}
	down := map[topology.LinkID]bool{}
	for _, l := range fs.DownLinks() {
		down[l] = true
	}
	return down
}

// deadLinkHits walks every path of every sampled answer with
// core.PathLinksForIndex and counts answers that cross a link down at
// their generation (or that claim a disconnection, which a switch
// cable cannot cause).
func deadLinkHits(o *faultOracle, samples []pathAnswer) int {
	hits := 0
	var buf []topology.LinkID
	cache := map[uint64]map[topology.LinkID]bool{}
	for _, a := range samples {
		down, ok := cache[a.Gen]
		if !ok {
			down = o.downAt(a.Gen)
			cache[a.Gen] = down
		}
		bad := a.Disconnected || len(a.Paths) == 0
		for _, idx := range a.Paths {
			buf = core.PathLinksForIndex(o.t, a.Src, a.Dst, idx, buf[:0])
			for _, l := range buf {
				if down[l] {
					bad = true
				}
			}
		}
		if bad {
			hits++
		}
	}
	return hits
}

// handlerTimer wraps the server's handler and records each request's
// service time as a span named after its route while on is set.
type handlerTimer struct {
	tr *tracer
	on atomic.Bool
}

func (ht *handlerTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ht.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		ht.tr.record(routeName(r), 0, t0, time.Now())
	})
}

// routeName names a request's API route for the service-time spans.
func routeName(r *http.Request) string {
	p := r.URL.Path
	if strings.HasSuffix(p, "/paths") {
		return "serve.batch"
	}
	for _, route := range []string{"path", "maxload", "state", "faults"} {
		if strings.HasSuffix(p, "/"+route) {
			return "serve." + route
		}
	}
	return "serve.other"
}

func runServe(e env) (*report, error) {
	rep := &report{layers: map[string]metric{}}
	var ht *handlerTimer
	var wrap func(http.Handler) http.Handler
	if e.traced {
		ht = &handlerTimer{tr: newTracer()}
		wrap = ht.wrap
	}
	// Boot six times, timing the last five (the first takes the
	// process's first heap growth, as in repeatSetup); each boot after
	// the first closes its predecessor outside the timed span.
	var sv *server
	for i := 0; i < 6; i++ {
		if sv != nil {
			sv.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if sv, err = bootServer(e.outDir, wrap); err != nil {
			return nil, err
		}
		if i > 0 {
			rep.setups = append(rep.setups, time.Since(t0).Seconds())
		}
	}
	defer sv.close()
	t := sv.s.Fabric(serveFabric).Topology()
	g := &loadGen{url: sv.url, n: t.NumProcessors(), seed: e.seed, cables: switchCables(t)}
	if ht != nil {
		ht.on.Store(true)
	}

	// Drop the set-up's garbage (the earlier boots' tables) before
	// measuring, so its collection does not land inside a phase.
	runtime.GC()
	debug.FreeOSMemory()

	// After an unrecorded warm-up (connections, memoized maxload answers)
	// the phases share the run's measurement window: the base rate takes
	// 55%, the high rate 10% with one GET /state poll, and each ladder
	// step 5%. Cables churn in every measured phase. The poll stays out
	// of the base-rate phase: each one holds a CPU for the ~400 ms
	// checksum, and two of them set that phase's tail on their own.
	window := time.Duration(e.seconds * float64(time.Second))
	var phases []phaseResult // [0] warm-up, [1] base rate, [2] high rate, then the ladder
	var ladder []ladderStep
	work := measureWork(func() {
		phases = append(phases, g.runPhase(phaseSpec{rate: baseRate, dur: window * 5 / 100, first: 0}, e.seed))
		phases = append(phases, g.runPhase(phaseSpec{rate: baseRate, dur: window * 55 / 100, first: 1 << 40, churn: true}, e.seed))
		phases = append(phases, g.runPhase(phaseSpec{rate: highRate, dur: window * 10 / 100, first: 2 << 40, churn: true, statePolls: 1}, e.seed+1))
		for i, rate := range ladderRates {
			p := g.runPhase(phaseSpec{rate: rate, dur: window * 5 / 100, first: int64(i+3) << 40, churn: true}, e.seed+int64(i)+2)
			phases = append(phases, p)
			v, _, _ := tail(p.pathLat, 99)
			st := ladderStep{rate: rate, tailMs: v, failed: p.ol.failed + p.throttled,
				backlog: p.ol.backlogged(backlogLimit), completed: len(p.pathLat)}
			ladder = append(ladder, st)
			if !st.meets(latencyLimit) {
				break
			}
		}
	})
	rep.work = work
	var storms []float64
	stormFailed := 0
	var stormEventsLog []churnEvent
	for i := 0; i < 5; i++ {
		d, evs, f := g.storm(e.seed + int64(i))
		storms = append(storms, d)
		stormEventsLog = append(stormEventsLog, evs...)
		stormFailed += f
	}
	rep.passes = storms
	if !e.traced {
		rep.peakRSSMB, rep.rssNote = peakRSSMB(), "process peak"
	}
	// The reported latencies are those of the single-pair path queries,
	// 90% of the mix: batch and maxload answers take 0.5-4 ms of service
	// on their own, so the mix's upper quantiles sit where those 10%
	// begin and jump between the two populations from run to run. The
	// mix's quantiles are printed below.
	base := phases[1]
	rep.ops = base.pathLat

	// Correctness: every request answered, every sampled path clear of
	// the links down at its generation, every event converged, and the
	// healed fabric back on the healthy table.
	var events []churnEvent
	loadFailed, attempted, hits, sampled, throttled := 0, 0, 0, 0, 0
	for _, p := range phases {
		attempted += p.ol.attempted()
		loadFailed += p.ol.failed
		throttled += p.throttled
		events = append(events, p.events...)
	}
	events = append(events, stormEventsLog...)
	oracle := &faultOracle{t: t, events: sortedEvents(events)}
	opFailed := stormFailed
	for _, p := range phases {
		opFailed += p.opFailed
		hits += deadLinkHits(oracle, p.samples)
		sampled += len(p.samples)
	}
	rep.attempted += int64(attempted + sampled + len(events))
	rep.failed += int64(loadFailed + hits + opFailed)
	rep.checks = append(rep.checks,
		check{"queries answered 2xx", loadFailed == 0, fmt.Sprintf("%d failed (%d refused with 429) of %d", loadFailed, throttled, attempted), 1},
		check{"sampled paths avoid down links", hits == 0, fmt.Sprintf("%d of %d sampled answers cross a link down at their gen", hits, sampled), 1},
		check{"fault events admitted and converged", opFailed == 0, fmt.Sprintf("%d failed of %d events and state polls", opFailed, len(events)), 1},
	)
	served, err := servedChecksum(sv.url)
	fresh := freshChecksum()
	rep.addCheck("healed checksum equals fresh compile", err == nil && served == fresh, "served %s, fresh %s (err %v)", served, fresh, err)

	var conv []float64
	for _, ev := range events {
		if ev.convergeMs >= 0 {
			conv = append(conv, ev.convergeMs)
		}
	}
	convergeMs := median(conv)
	sustained := sustainedRate(ladder, latencyLimit)
	lagTail, lagPct, _ := tail(base.ol.lags, 99)
	p99, pct, n := tail(base.ol.latencies, 99)
	rep.addInfo("converge_ms", convergeMs, "ms", fmt.Sprintf("median of %d fault events, ack to first answer at that gen", len(conv)))
	rep.addInfo("sustained_qps", sustained, "1/s", fmt.Sprintf("highest ladder rate with path p99 <= %g ms, no failures, no backlog", latencyLimit))
	for _, st := range ladder {
		rep.addInfo(fmt.Sprintf("ladder %.0f/s", st.rate), st.tailMs, "ms", fmt.Sprintf("path p99, %d path answers, %d failed, backlog %v", st.completed, st.failed, st.backlog))
	}
	mix90, _, _ := tail(base.ol.latencies, 90)
	at := fmt.Sprintf("@%.0f/s", baseRate)
	rep.addInfo("mix p50_ms"+at, median(base.ol.latencies), "ms", fmt.Sprintf("all kinds, %d requests", n))
	rep.addInfo("mix p90_ms"+at, mix90, "ms", "all kinds")
	rep.addInfo("mix p99_ms"+at, p99, "ms", fmt.Sprintf("all kinds, p%g", pct))
	pp99, ppct, pn := tail(base.pathLat, 99)
	rep.addInfo("path p99_ms"+at, pp99, "ms", fmt.Sprintf("p%g of %d path queries", ppct, pn))
	hp99, hpct, hn := tail(phases[2].ol.latencies, 99)
	rep.addInfo("mix p50_ms@8000/s", median(phases[2].ol.latencies), "ms", fmt.Sprintf("all kinds, %d requests", hn))
	rep.addInfo("mix p99_ms@8000/s", hp99, "ms", fmt.Sprintf("all kinds, p%g", hpct))
	rep.addInfo("loadgen.lag_ms", lagTail, "ms", fmt.Sprintf("p%g generator lateness at %.0f/s", lagPct, baseRate))
	rep.addInfo("state_ms", median(phases[2].stateMs), "ms", fmt.Sprintf("GET /state during the %.0f/s phase", highRate))
	rep.addInfo("storm events", float64(len(stormEventsLog)), "count", fmt.Sprintf("%d per pass, each posted and awaited", stormEvents))

	if e.traced {
		l := rep.layers
		ht.on.Store(false)
		untraced, _, _ := g.storm(e.seed + 100)
		ht.on.Store(true)
		traced, _, _ := g.storm(e.seed + 100)
		spans := ht.tr.snapshot()
		tr2 := newTracer()
		replayed := serveReplay(tr2, oracle.events)
		rep.addCheck("replayed healed checksum equals served", replayed == served, "replay %s, served %s", replayed, served)
		spans = append(spans, tr2.snapshot()...)
		sum := summarize(spans)
		for _, r := range []string{"path", "batch", "maxload", "faults"} {
			if st := sum["serve."+r]; st != nil {
				v, _, _ := tail(st.durs, 99)
				l["serve."+r+"_us_p50"] = metric{median(st.durs) / 1e3, "us"}
				l["serve."+r+"_us_tail"] = metric{v / 1e3, "us"}
			}
		}
		if st := sum["serve.state"]; st != nil {
			l["serve.state_us_p50"] = metric{median(st.durs) / 1e3, "us"}
		}
		if st := sum["serve.path"]; st != nil {
			l["serve.queue_ms"] = metric{median(base.ol.latencies) - median(st.durs)/1e6, "ms"}
		}
		l["serve.boot_s"] = metric{median(rep.setups), "s"}
		l["serve.converge_ms"] = metric{convergeMs, "ms"}
		p90, _, _ := tail(base.pathLat, 90)
		l["serve.p90_ms"] = metric{p90, "ms"}
		l["serve.p99_ms"] = metric{pp99, "ms"}
		l["serve.sustained_qps"] = metric{sustained, "1/s"}
		l["serve.queries"] = metric{float64(counterValue(work, "serve.queries")), "count"}
		l["serve.events_accepted"] = metric{float64(counterValue(work, "serve.events_accepted")), "count"}
		l["serve.table_swaps"] = metric{float64(counterValue(work, "serve.table_swaps")), "count"}
		l["loadgen.lag_ms"] = metric{lagTail, "ms"}
		l["loadgen.errors"] = metric{float64(loadFailed - throttled), "count"}
		l["loadgen.throttled"] = metric{float64(throttled), "count"}
		l["core.compile_s"] = metric{meanSpan(sum, "core.compile", 1e9), "s"}
		l["core.repairer_s"] = metric{meanSpan(sum, "core.repairer", 1e9), "s"}
		l["core.repair_us"] = metric{meanSpan(sum, "core.repair", 1e3), "us"}
		l["core.delta_patch_ms"] = metric{meanSpan(sum, "core.delta_patch", 1e6), "ms"}
		l["core.checksum_ms"] = metric{meanSpan(sum, "core.checksum", 1e6), "ms"}
		l["trace.overhead_s"] = metric{traced - untraced, "s"}
		l["trace.spans"] = metric{float64(len(spans)), "count"}
		layersFromWork(l, work)
		if err := writeSpans(filepath.Join(e.outDir, fmt.Sprintf("spans-serve-churn-%d.jsonl", e.seed)), spans); err != nil {
			return nil, err
		}
		printSelfTimes(rep, sum)
	}
	return rep, nil
}

// sortedEvents orders admitted events by sequence number.
func sortedEvents(evs []churnEvent) []churnEvent {
	out := append([]churnEvent(nil), evs...)
	sortBy(out, func(e churnEvent) float64 { return float64(e.seq) })
	return out
}

// servedChecksum waits until the fabric has applied every acked event
// and returns the served table's checksum from GET /state.
func servedChecksum(url string) (string, error) {
	c := newClient(1)
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		b, code, err := do(c, "GET", url+"/fabrics/"+serveFabric+"/state", nil)
		if err != nil {
			return "", err
		}
		if code != http.StatusOK {
			return "", fmt.Errorf("%w: state %d", errStatus, code)
		}
		var st struct {
			Gen      uint64 `json:"gen"`
			AckedSeq uint64 `json:"acked_seq"`
			Checksum string `json:"checksum"`
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return "", err
		}
		if st.Gen == st.AckedSeq {
			return st.Checksum, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return "", errors.New("fabric did not converge")
}

// serveRouting builds the fabric's routing as the server does.
func serveRouting() *core.Routing {
	t := topology.MustNew(3, []int{8, 8, 16}, []int{1, 8, 8})
	return core.NewRouting(t, core.Disjoint{}, serveK, serveSeed)
}

// freshChecksum compiles the healthy fabric from scratch.
func freshChecksum() string {
	c, err := core.CompileRouting(serveRouting(), 1<<30)
	if err != nil {
		return "compile: " + err.Error()
	}
	return fmt.Sprintf("%016x", c.Checksum())
}

// serveReplay applies the run's admitted fault events, in order,
// straight to core on an identically built table — repair, delta
// patch — with spans, checksums a few of the patched tables, and
// returns the checksum after the last event.
func serveReplay(tr *tracer, events []churnEvent) string {
	r := serveRouting()
	sp := tr.begin("core.compile", 0)
	c, err := core.CompileRouting(r, 1<<30)
	sp.end()
	if err != nil {
		return "compile: " + err.Error()
	}
	sp = tr.begin("core.repairer", 0)
	d, err := core.NewDeltaRepairer(c)
	sp.end()
	if err != nil {
		return "repairer: " + err.Error()
	}
	oracle := &faultOracle{t: r.Topology(), events: events}
	last := c
	for i, ev := range events {
		fs := topology.NewFaultSet(r.Topology())
		for l := range oracle.downAt(ev.seq) {
			if err := fs.FailLink(l); err != nil {
				return "fault set: " + err.Error()
			}
		}
		if fs.Empty() {
			last = c
			continue
		}
		sp = tr.begin("core.repair", 0)
		rr, err := r.Repair(fs)
		sp.end()
		if err != nil {
			return "repair: " + err.Error()
		}
		sp = tr.begin("core.delta_patch", 0)
		last, err = d.CompileRepairedDelta(rr)
		sp.end()
		if err != nil {
			return "patch: " + err.Error()
		}
		if i < 3 {
			sp = tr.begin("core.checksum", 0)
			last.Checksum()
			sp.end()
		}
	}
	sp = tr.begin("core.checksum", 0)
	sum := last.Checksum()
	sp.end()
	return fmt.Sprintf("%016x", sum)
}
