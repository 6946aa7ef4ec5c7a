package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xgftsim/internal/cliutil"
	"xgftsim/internal/core"
	"xgftsim/internal/topology"
)

func edgeSpec() FabricSpec {
	return FabricSpec{Name: "edge", XGFT: "2;4,4;1,4", Scheme: "d-mod-k", K: 4, Seed: 2012}
}

func podSpec() FabricSpec {
	return FabricSpec{Name: "pod", XGFT: "3;2,2,2;1,2,2", Scheme: "disjoint", K: 2, Seed: 7}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if len(cfg.Fabrics) == 0 {
		cfg.Fabrics = []FabricSpec{edgeSpec()}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		s.Close()
	})
	return s, hs
}

func postFault(t *testing.T, url string, e Event) (int, uint64) {
	t.Helper()
	body, _ := json.Marshal(e)
	resp, err := http.Post(url+"/fabrics/edge/faults", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack faultAck
	json.NewDecoder(resp.Body).Decode(&ack)
	return resp.StatusCode, ack.Seq
}

func waitSettled(t *testing.T, f *Fabric) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if f.Staleness() == 0 && !f.Degraded() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fabric %s did not settle: staleness=%d degraded=%v lastErr=%q",
				f.Spec.Name, f.Staleness(), f.Degraded(), f.State().lastErr)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestParseFabricSpec(t *testing.T) {
	spec, err := ParseFabricSpec("edge:2;4,4;1,4:disjoint:2:99")
	if err != nil {
		t.Fatal(err)
	}
	want := FabricSpec{Name: "edge", XGFT: "2;4,4;1,4", Scheme: "disjoint", K: 2, Seed: 99}
	if spec != want {
		t.Errorf("got %+v, want %+v", spec, want)
	}
	if _, err := ParseFabricSpec("noxgft"); err == nil {
		t.Error("missing xgft accepted")
	}
	if _, err := ParseFabricSpec("e:2;4,4;1,4:d-mod-k:0"); err == nil {
		t.Error("K=0 accepted")
	}
	// Defaults.
	spec, err = ParseFabricSpec("e:2;4,4;1,4")
	if err != nil || spec.Scheme != "d-mod-k" || spec.K != 4 || spec.Seed != 2012 {
		t.Errorf("defaults: %+v, err %v", spec, err)
	}
}

func TestPathQueryMatchesRouting(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	f := s.Fabric("edge")
	n := f.Topology().NumProcessors()
	for src := 0; src < n; src += 3 {
		for dst := 0; dst < n; dst += 5 {
			if src == dst {
				continue
			}
			var pr pathResponse
			if code := getJSON(t, fmt.Sprintf("%s/fabrics/edge/path?src=%d&dst=%d", hs.URL, src, dst), &pr); code != 200 {
				t.Fatalf("path query: %d", code)
			}
			want := f.routing.Paths(src, dst)
			if len(pr.Paths) != len(want) {
				t.Fatalf("(%d,%d): got %v, want %v", src, dst, pr.Paths, want)
			}
			for i := range want {
				if pr.Paths[i] != want[i] {
					t.Fatalf("(%d,%d): got %v, want %v", src, dst, pr.Paths, want)
				}
			}
		}
	}
	// Bad inputs are 400s, unknown fabrics 404s.
	resp, _ := http.Get(hs.URL + "/fabrics/edge/path?src=-1&dst=2")
	if resp.StatusCode != 400 {
		t.Errorf("src=-1: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(hs.URL + "/fabrics/nope/path?src=0&dst=1")
	if resp.StatusCode != 404 {
		t.Errorf("unknown fabric: %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestFaultHealRoundTripRestoresChecksum(t *testing.T) {
	s, hs := newTestServer(t, Config{})
	f := s.Fabric("edge")
	healthy := f.State().table.Checksum()

	code, seq := postFault(t, hs.URL, Event{Op: "fail", Kind: "cable", Node: 3, Port: 0})
	if code != 202 || seq != 1 {
		t.Fatalf("fail: code %d seq %d", code, seq)
	}
	waitSettled(t, f)
	st := f.State()
	if st.gen != 1 || st.table == nil {
		t.Fatalf("state after fail: gen %d", st.gen)
	}
	if st.table.Checksum() == healthy {
		t.Error("fault did not change the table")
	}
	if st.unreachable == 0 {
		t.Error("cutting node 3's only cable should strand pairs")
	}
	// Served paths match an independently repaired oracle.
	fs := topology.NewFaultSet(f.Topology())
	fs.FailCable(topology.NodeID(3), 0)
	rr := f.routing.MustRepair(fs)
	var pr pathResponse
	getJSON(t, hs.URL+"/fabrics/edge/path?src=0&dst=7", &pr)
	want := rr.Paths(0, 7)
	if fmt.Sprint(pr.Paths) != fmt.Sprint(want) {
		t.Errorf("degraded paths: got %v, want %v", pr.Paths, want)
	}

	code, _ = postFault(t, hs.URL, Event{Op: "heal", Kind: "cable", Node: 3, Port: 0})
	if code != 202 {
		t.Fatalf("heal: %d", code)
	}
	waitSettled(t, f)
	st = f.State()
	if got := st.table.Checksum(); got != healthy {
		t.Errorf("heal did not restore the healthy table: %016x vs %016x", got, healthy)
	}
	if st.unreachable != 0 || st.rep != nil {
		t.Errorf("healed state still degraded: unreachable %d", st.unreachable)
	}
}

func TestOverlappingSwitchAndCableFaults(t *testing.T) {
	// A dead switch plus dead cables incident to it must converge to
	// the same served table as the switch alone (the cable events are
	// subsumed), and heal back out in any order.
	s, hs := newTestServer(t, Config{Fabrics: []FabricSpec{edgeSpec()}})
	f := s.Fabric("edge")
	sw := f.Topology().NumProcessors() // first level-1 switch node id
	if f.Topology().Level(topology.NodeID(sw)) != 1 {
		t.Fatalf("node %d is not a level-1 switch", sw)
	}
	child := f.Topology().Child(topology.NodeID(sw), 0)

	postFault(t, hs.URL, Event{Op: "fail", Kind: "switch", Node: sw})
	waitSettled(t, f)
	switchOnly := f.State().table.Checksum()

	// Add a cable that is already inside the switch's dead closure.
	up := f.Topology().UpPortOf(child, topology.NodeID(sw))
	postFault(t, hs.URL, Event{Op: "fail", Kind: "cable", Node: int(child), Port: up})
	waitSettled(t, f)
	if got := f.State().table.Checksum(); got != switchOnly {
		t.Errorf("subsumed cable fault changed the table: %016x vs %016x", got, switchOnly)
	}

	// Heal the switch; the cable stays down.
	postFault(t, hs.URL, Event{Op: "heal", Kind: "switch", Node: sw})
	waitSettled(t, f)
	fs := topology.NewFaultSet(f.Topology())
	fs.FailCable(child, up)
	want, err := f.delta.CompileRepairedDelta(f.routing.MustRepair(fs))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.State().table.Checksum(); got != want.Checksum() {
		t.Errorf("after switch heal: %016x, want cable-only %016x", got, want.Checksum())
	}
}

func TestBackpressure429(t *testing.T) {
	// Build but do not start workers: the queue fills at its bound.
	s, err := New(Config{Fabrics: []FabricSpec{edgeSpec()}, Dir: t.TempDir(), QueueSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	for i := 0; i < 2; i++ {
		code, _ := postFault(t, hs.URL, Event{Op: "fail", Kind: "link", Link: i})
		if code != 202 {
			t.Fatalf("event %d: %d, want 202", i, code)
		}
	}
	body, _ := json.Marshal(Event{Op: "fail", Kind: "link", Link: 9})
	resp, err := http.Post(hs.URL+"/fabrics/edge/faults", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// The rejected event consumed no sequence number and was not
	// journaled: the acknowledged count is still 2.
	if got := s.Fabric("edge").journal.Records(); got != 2 {
		t.Errorf("journal records = %d, want 2", got)
	}
	// Queries still succeed while the queue is full — admission
	// control never blocks the read path.
	var pr pathResponse
	if code := getJSON(t, hs.URL+"/fabrics/edge/path?src=0&dst=1", &pr); code != 200 {
		t.Fatalf("query during backpressure: %d", code)
	}
	if pr.Staleness != 2 {
		t.Errorf("staleness = %d, want 2 (two acked, none applied)", pr.Staleness)
	}
}

func TestOverBudgetRepairDegradesGracefully(t *testing.T) {
	// Budget exactly fits the healthy table; any delta overlay exceeds
	// it, so the first fault degrades the fabric: the stale table keeps
	// serving CSR queries, but path answers fall back to fresh lazy
	// repair and carry the degraded flag.
	spec := edgeSpec()
	tpo, _ := cliutil.ParseXGFT(spec.XGFT)
	sel, _ := core.SelectorByName(spec.Scheme)
	budget := core.CompiledBytes(core.NewRouting(tpo, sel, spec.K, spec.Seed))
	s, hs := newTestServer(t, Config{
		Fabrics:     []FabricSpec{spec},
		TableBudget: budget,
		MaxAttempts: 1,
		WedgeAfter:  time.Hour, // degraded, not wedged
	})
	f := s.Fabric("edge")
	healthy := f.State().table.Checksum()

	postFault(t, hs.URL, Event{Op: "fail", Kind: "cable", Node: 3, Port: 0})
	deadline := time.Now().Add(10 * time.Second)
	for !f.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("fabric never reported degraded")
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := f.State()
	if st.table == nil || st.table.Checksum() != healthy {
		t.Error("degraded state lost the last good table")
	}
	if st.lastErr == "" {
		t.Error("degraded state has no lastErr")
	}

	var pr pathResponse
	getJSON(t, hs.URL+"/fabrics/edge/path?src=3&dst=7", &pr)
	if !pr.Degraded {
		t.Error("response not flagged degraded")
	}
	// The lazy repair is fresh (only the table is stale), so path
	// answers miss no acknowledged event.
	if pr.Staleness != 0 {
		t.Errorf("staleness = %d, want 0 (rep is fresh)", pr.Staleness)
	}
	// But the served paths are still correct: node 3 is cut off, so the
	// degraded fallback must answer disconnected, not routes over the
	// dead cable.
	if len(pr.Paths) != 0 || !pr.Disconnected {
		t.Errorf("degraded fallback served %v over a dead cable", pr.Paths)
	}

	var rz struct {
		Ready bool `json:"ready"`
	}
	if code := getJSON(t, hs.URL+"/readyz", &rz); code != 200 || !rz.Ready {
		t.Errorf("degraded-but-progressing fabric should stay ready: code %d ready %v", code, rz.Ready)
	}
}

func TestCrashRecoveryConvergesBitIdentical(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Fabrics: []FabricSpec{edgeSpec(), podSpec()}, Dir: dir}
	s, hs := newTestServer(t, cfg)
	f := s.Fabric("edge")

	events := []Event{
		{Op: "fail", Kind: "cable", Node: 1, Port: 0},
		{Op: "fail", Kind: "switch", Node: 17},
		{Op: "fail", Kind: "link", Link: 40},
		{Op: "heal", Kind: "cable", Node: 1, Port: 0},
		{Op: "fail", Kind: "cable", Node: 5, Port: 0},
	}
	for _, e := range events {
		if code, _ := postFault(t, hs.URL, e); code != 202 {
			t.Fatalf("event %+v: %d", e, code)
		}
	}
	waitSettled(t, f)
	before := f.State()
	beforeSum := before.table.Checksum()
	beforeGen := before.gen

	// "Crash": the journal was fsync'd per event, so simply abandoning
	// the server (no graceful close) models a kill -9. Reopen on the
	// same directory.
	hs.Close()
	s.Close()

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	f2 := s2.Fabric("edge")
	after := f2.State()
	if after.gen != beforeGen {
		t.Errorf("replayed gen %d, want %d", after.gen, beforeGen)
	}
	if got := after.table.Checksum(); got != beforeSum {
		t.Fatalf("replayed table checksum %016x, want %016x", got, beforeSum)
	}
	// Bit-compare every pair's rows, not just the checksum.
	n := f.Topology().NumProcessors()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			l1, p1 := before.table.PairLinks(src, dst)
			l2, p2 := after.table.PairLinks(src, dst)
			if p1 != p2 || len(l1) != len(l2) {
				t.Fatalf("(%d,%d): shape differs after replay", src, dst)
			}
			for i := range l1 {
				if l1[i] != l2[i] {
					t.Fatalf("(%d,%d): link %d differs after replay", src, dst, i)
				}
			}
		}
	}
}

func TestConcurrentQueriesDuringChurnRaceClean(t *testing.T) {
	// Hammer path queries from several goroutines while faults and
	// heals stream in: swaps are atomic, so every response must be
	// internally consistent and 200. Run under -race in CI.
	s, hs := newTestServer(t, Config{Fabrics: []FabricSpec{edgeSpec()}})
	f := s.Fabric("edge")
	n := f.Topology().NumProcessors()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src, dst := (i+w)%n, (i*7+w*3+1)%n
				if src == dst {
					continue
				}
				resp, err := client.Get(fmt.Sprintf("%s/fabrics/edge/path?src=%d&dst=%d", hs.URL, src, dst))
				if err != nil {
					errs <- err
					return
				}
				var pr pathResponse
				err = json.NewDecoder(resp.Body).Decode(&pr)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != 200 {
					errs <- fmt.Errorf("query dropped: %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 60; i++ {
		e := Event{Op: "fail", Kind: "cable", Node: i % n, Port: 0}
		if i%2 == 1 {
			e.Op = "heal"
		}
		for {
			code, _ := postFault(t, hs.URL, e)
			if code == 202 {
				break
			}
			if code != 429 {
				t.Fatalf("event %d: %d", i, code)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	waitSettled(t, f)
}

// TestFaultBodyBounded pins the POST /faults body cap: an event padded
// past maxEventBytes is rejected with 400 and never journaled.
func TestFaultBodyBounded(t *testing.T) {
	s, err := New(Config{Fabrics: []FabricSpec{edgeSpec()}, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	body := `{"op":"fail","kind":"link","link":1,"pad":"` + strings.Repeat("a", 2*maxEventBytes) + `"}`
	resp, err := http.Post(hs.URL+"/fabrics/edge/faults", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized event: %d, want 400", resp.StatusCode)
	}
	if got := s.Fabric("edge").journal.Records(); got != 0 {
		t.Errorf("journal records = %d, want 0", got)
	}
}
