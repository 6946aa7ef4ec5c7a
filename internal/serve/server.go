package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"xgftsim/internal/flow"
	"xgftsim/internal/lid"
	"xgftsim/internal/obs"
	"xgftsim/internal/stats"
	"xgftsim/internal/traffic"
)

// Config configures a Server.
type Config struct {
	// Fabrics are the served topologies; at least one is required, and
	// names must be unique.
	Fabrics []FabricSpec
	// Dir is where each fabric's write-ahead journal lives
	// (<dir>/<name>.journal).
	Dir string
	// QueueSize bounds each fabric's pending-event queue; a full queue
	// answers 429 with Retry-After. Default 1024.
	QueueSize int
	// RepairTimeout bounds one table rebuild before the fabric is
	// marked degraded. Default 30s.
	RepairTimeout time.Duration
	// BackoffBase/BackoffCap shape the capped exponential retry after
	// a failed rebuild. Defaults 100ms / 5s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// MaxAttempts bounds rebuild retries per event batch (the fabric
	// then stays degraded until the next event). Default 4.
	MaxAttempts int
	// WedgeAfter is the repair lag past which /readyz reports the
	// fabric wedged. Default 10s.
	WedgeAfter time.Duration
	// TableBudget caps compiled-table bytes per fabric; larger fabrics
	// serve lazily. Default core's 1 GiB.
	TableBudget int64
	// MaxBatch bounds the pair count of one POST /fabrics/{name}/paths
	// batch; larger batches are rejected whole with 413. Default 8192.
	MaxBatch int
}

// Server is the multi-fabric routing control plane: an http.Handler
// answering path/LID/load queries from atomically-swapped compiled
// tables while its per-fabric workers ingest fault events.
type Server struct {
	cfg     Config
	fabrics map[string]*Fabric
	order   []string
	mux     *http.ServeMux

	runOnce sync.Once
	cancel  context.CancelFunc
	done    sync.WaitGroup
}

// New builds the server: every fabric is compiled (or declared lazy),
// its journal replayed, and its initial state published. Workers do
// not run until Start.
func New(cfg Config) (*Server, error) {
	if len(cfg.Fabrics) == 0 {
		return nil, fmt.Errorf("serve: need at least one fabric")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: need a journal directory")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 1024
	}
	if cfg.RepairTimeout <= 0 {
		cfg.RepairTimeout = 30 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 100 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 4
	}
	if cfg.WedgeAfter <= 0 {
		cfg.WedgeAfter = 10 * time.Second
	}
	if cfg.TableBudget <= 0 {
		cfg.TableBudget = 1 << 30
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8192
	}
	s := &Server{cfg: cfg, fabrics: make(map[string]*Fabric)}
	for _, spec := range cfg.Fabrics {
		if _, dup := s.fabrics[spec.Name]; dup {
			s.closeAll()
			return nil, fmt.Errorf("serve: duplicate fabric name %q", spec.Name)
		}
		f, err := newFabric(spec, fabricOptions{
			journalPath:   filepath.Join(cfg.Dir, spec.Name+".journal"),
			queueSize:     cfg.QueueSize,
			repairTimeout: cfg.RepairTimeout,
			backoffBase:   cfg.BackoffBase,
			backoffCap:    cfg.BackoffCap,
			maxAttempts:   cfg.MaxAttempts,
			budget:        cfg.TableBudget,
		})
		if err != nil {
			s.closeAll()
			return nil, err
		}
		s.fabrics[spec.Name] = f
		s.order = append(s.order, spec.Name)
	}
	s.mux = s.buildMux()
	return s, nil
}

func (s *Server) closeAll() {
	for _, f := range s.fabrics {
		f.Close()
	}
}

// Start launches the per-fabric repair workers under ctx.
func (s *Server) Start(ctx context.Context) {
	s.runOnce.Do(func() {
		ctx, s.cancel = context.WithCancel(ctx)
		for _, name := range s.order {
			f := s.fabrics[name]
			s.done.Add(1)
			go func() {
				defer s.done.Done()
				f.run(ctx)
			}()
		}
	})
}

// Close stops the workers and closes every journal.
func (s *Server) Close() {
	if s.cancel != nil {
		s.cancel()
	}
	s.done.Wait()
	s.closeAll()
}

// Handler returns the HTTP API: the server itself, whose ServeHTTP
// fast-routes the query hot path and delegates everything else to the
// generic mux.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP routes requests. The single-pair query endpoints — the
// read hot path — are matched with allocation-free string slicing and
// dispatched to the pooled-buffer handlers in fastpath.go; everything
// else (faults, state, health, batch, LFT dumps) goes through the
// ServeMux. Unknown fabrics fall through to the mux's withFabric 404.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet {
		if rest, ok := strings.CutPrefix(r.URL.Path, "/fabrics/"); ok {
			if i := strings.IndexByte(rest, '/'); i > 0 {
				if f := s.fabrics[rest[:i]]; f != nil {
					switch rest[i+1:] {
					case "path":
						s.fastPath(w, r, f)
						return
					case "lid":
						s.fastLID(w, r, f)
						return
					case "maxload":
						s.fastMaxLoad(w, r, f)
						return
					}
				}
			}
		}
	}
	s.mux.ServeHTTP(w, r)
}

// Fabric returns the named fabric, nil if absent (for tests and the
// churn driver's oracle).
func (s *Server) Fabric(name string) *Fabric { return s.fabrics[name] }

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /fabrics", s.handleFabrics)
	mux.HandleFunc("GET /fabrics/{name}/path", s.withFabric(s.handlePath))
	mux.HandleFunc("GET /fabrics/{name}/lid", s.withFabric(s.handleLID))
	mux.HandleFunc("GET /fabrics/{name}/maxload", s.withFabric(s.handleMaxLoad))
	mux.HandleFunc("GET /fabrics/{name}/state", s.withFabric(s.handleState))
	mux.HandleFunc("GET /fabrics/{name}/lft", s.withFabric(s.handleLFT))
	mux.HandleFunc("POST /fabrics/{name}/paths", s.withFabric(s.handleBatchPaths))
	mux.HandleFunc("POST /fabrics/{name}/faults", s.withFabric(s.handleFaults))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// writeJSON encodes v as the response body. The Content-Type header
// must be installed before WriteHeader locks the headers in, and an
// Encode failure (client gone mid-body, unencodable value) is counted
// in serve.encode_errors rather than silently dropped — the status
// line is already on the wire by then, so counting is all that is
// left to do.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		met.encodeErrors.Inc()
	}
}

type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) withFabric(h func(http.ResponseWriter, *http.Request, *Fabric)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		f := s.fabrics[r.PathValue("name")]
		if f == nil {
			writeJSON(w, http.StatusNotFound, errorBody{fmt.Sprintf("unknown fabric %q", r.PathValue("name"))})
			return
		}
		h(w, r, f)
	}
}

// fabricInfo is one row of GET /fabrics.
type fabricInfo struct {
	Name       string `json:"name"`
	XGFT       string `json:"xgft"`
	Scheme     string `json:"scheme"`
	K          int    `json:"k"`
	Seed       int64  `json:"seed"`
	Mode       string `json:"mode"`
	Endpoints  int    `json:"endpoints"`
	Links      int    `json:"links"`
	Gen        uint64 `json:"gen"`
	Staleness  uint64 `json:"staleness"`
	Degraded   bool   `json:"degraded"`
	QueueDepth int    `json:"queue_depth"`
}

func (s *Server) handleFabrics(w http.ResponseWriter, r *http.Request) {
	out := make([]fabricInfo, 0, len(s.order))
	for _, name := range s.order {
		f := s.fabrics[name]
		st := f.State()
		out = append(out, fabricInfo{
			Name: name, XGFT: f.Spec.XGFT, Scheme: f.Spec.Scheme, K: f.Spec.K, Seed: f.Spec.Seed,
			Mode: f.Mode(), Endpoints: f.topo.NumProcessors(), Links: f.topo.NumLinks(),
			Gen: st.gen, Staleness: f.Staleness(), Degraded: st.degraded, QueueDepth: f.QueueDepth(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// pathResponse answers GET /fabrics/{name}/path?src=&dst=[&ports=1].
type pathResponse struct {
	Src          int     `json:"src"`
	Dst          int     `json:"dst"`
	Paths        []int   `json:"paths"` // path indices in selection order
	PortRoutes   [][]int `json:"port_routes,omitempty"`
	Gen          uint64  `json:"gen"`
	Staleness    uint64  `json:"staleness"`
	Degraded     bool    `json:"degraded"`
	Disconnected bool    `json:"disconnected,omitempty"`
	Unreachable  int     `json:"unreachable_pairs"`
	Mode         string  `json:"mode"`
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request, f *Fabric) {
	met.queries.Inc()
	src, err1 := strconv.Atoi(r.URL.Query().Get("src"))
	dst, err2 := strconv.Atoi(r.URL.Query().Get("dst"))
	n := f.topo.NumProcessors()
	if err1 != nil || err2 != nil || src < 0 || src >= n || dst < 0 || dst >= n {
		writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("want integer src,dst in [0,%d)", n)})
		return
	}
	st := f.State() // pin one state: the answer is consistent even mid-swap
	resp := pathResponse{
		Src: src, Dst: dst,
		Gen: st.gen, Staleness: f.ackedSeq.Load() - st.gen,
		Degraded: st.degraded, Unreachable: st.unreachable, Mode: f.Mode(),
	}
	if st.degraded {
		met.degradedResponses.Inc()
	}
	wantPorts := r.URL.Query().Get("ports") == "1"
	switch {
	case src == dst:
		resp.Paths = []int{}
	case st.rep != nil && (st.degraded || st.table == nil):
		// Fresh lazy repair: correct even when the table is stale.
		resp.Paths = st.rep.Paths(src, dst)
		if wantPorts {
			resp.PortRoutes = st.rep.PortRoutes(src, dst)
		}
	case st.table != nil:
		idx := st.table.PathIndices(src, dst)
		resp.Paths = make([]int, len(idx))
		for i, x := range idx {
			resp.Paths[i] = int(x)
		}
		if wantPorts {
			resp.PortRoutes = st.table.PortRoutes(src, dst)
		}
	default: // lazy mode, healthy
		resp.Paths = f.routing.Paths(src, dst)
		if wantPorts {
			resp.PortRoutes = f.routing.PortRoutes(src, dst)
		}
	}
	if len(resp.Paths) == 0 && src != dst {
		resp.Disconnected = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// lidResponse answers GET /fabrics/{name}/lid?dst=.
type lidResponse struct {
	Dst       int    `json:"dst"`
	Tags      []int  `json:"tags"`
	Gen       uint64 `json:"gen"`
	Staleness uint64 `json:"staleness"`
	Degraded  bool   `json:"degraded"`
}

func (s *Server) handleLID(w http.ResponseWriter, r *http.Request, f *Fabric) {
	met.queries.Inc()
	dst, err := strconv.Atoi(r.URL.Query().Get("dst"))
	n := f.topo.NumProcessors()
	if err != nil || dst < 0 || dst >= n {
		writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("want integer dst in [0,%d)", n)})
		return
	}
	st := f.State()
	rng := stats.Stream(f.Spec.Seed, int64(dst))
	var tags []int
	if st.faults != nil {
		tags, err = lid.DegradedDestinationTags(f.topo, f.routing.Selector(), dst, f.Spec.K, rng, st.faults)
	} else {
		tags, err = lid.DestinationTags(f.topo, f.routing.Selector(), dst, f.Spec.K, rng)
	}
	if err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{err.Error()})
		return
	}
	if st.degraded {
		met.degradedResponses.Inc()
	}
	writeJSON(w, http.StatusOK, lidResponse{
		Dst: dst, Tags: tags, Gen: st.gen,
		Staleness: f.ackedSeq.Load() - st.gen, Degraded: st.degraded,
	})
}

// maxloadResponse answers GET /fabrics/{name}/maxload?pattern=&arg=.
type maxloadResponse struct {
	Pattern   string  `json:"pattern"`
	MaxLoad   float64 `json:"max_load"`
	Flows     int     `json:"flows"`
	Gen       uint64  `json:"gen"`
	Staleness uint64  `json:"staleness"`
	Degraded  bool    `json:"degraded"`
	Mode      string  `json:"mode"`
}

func (s *Server) handleMaxLoad(w http.ResponseWriter, r *http.Request, f *Fabric) {
	met.queries.Inc()
	pattern := r.URL.Query().Get("pattern")
	arg := 1
	if a := r.URL.Query().Get("arg"); a != "" {
		var err error
		if arg, err = strconv.Atoi(a); err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{"bad arg"})
			return
		}
	}
	tm, err := traffic.BuildMatrix(f.topo, pattern, arg, f.Spec.Seed)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	st := f.State()
	var mload float64
	switch {
	case st.rep != nil && (st.degraded || st.table == nil):
		mload = flow.NewDegradedEvaluator(st.rep).MaxLoad(tm)
	case st.table != nil:
		mload = flow.NewCompiledEvaluator(st.table).MaxLoad(tm)
	default:
		mload = flow.NewEvaluator(f.routing).MaxLoad(tm)
	}
	if st.degraded {
		met.degradedResponses.Inc()
	}
	writeJSON(w, http.StatusOK, maxloadResponse{
		Pattern: pattern, MaxLoad: mload, Flows: tm.NumFlows(),
		Gen: st.gen, Staleness: f.ackedSeq.Load() - st.gen,
		Degraded: st.degraded, Mode: f.Mode(),
	})
}

// stateResponse answers GET /fabrics/{name}/state: the full picture a
// churn driver or operator needs to reason about convergence.
type stateResponse struct {
	Name        string `json:"name"`
	Mode        string `json:"mode"`
	Gen         uint64 `json:"gen"`
	TableGen    uint64 `json:"table_gen"`
	AckedSeq    uint64 `json:"acked_seq"`
	Staleness   uint64 `json:"staleness"`
	Degraded    bool   `json:"degraded"`
	LastError   string `json:"last_error,omitempty"`
	Unreachable int    `json:"unreachable_pairs"`
	DownLinks   []int  `json:"down_links"`
	Checksum    string `json:"checksum,omitempty"` // FNV-1a of the served table
	QueueDepth  int    `json:"queue_depth"`
	Journal     int    `json:"journal_records"`
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request, f *Fabric) {
	st := f.State()
	resp := stateResponse{
		Name: f.Spec.Name, Mode: f.Mode(),
		Gen: st.gen, TableGen: st.tableGen, AckedSeq: f.ackedSeq.Load(),
		Staleness: f.ackedSeq.Load() - st.gen,
		Degraded:  st.degraded, LastError: st.lastErr, Unreachable: st.unreachable,
		DownLinks:  []int{},
		QueueDepth: f.QueueDepth(), Journal: f.journal.Records(),
	}
	if st.faults != nil {
		for _, l := range st.faults.DownLinks() {
			resp.DownLinks = append(resp.DownLinks, int(l))
		}
	}
	if st.table != nil {
		resp.Checksum = fmt.Sprintf("%016x", st.table.Checksum())
	}
	writeJSON(w, http.StatusOK, resp)
}

// faultAck answers POST /fabrics/{name}/faults.
type faultAck struct {
	Seq uint64 `json:"seq"`
}

// maxEventBytes bounds a POST /faults body; one event is well under
// 200 bytes of JSON.
const maxEventBytes = 4 << 10

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request, f *Fabric) {
	var e Event
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEventBytes)).Decode(&e); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad event: %v", err)})
		return
	}
	if err := validateEvent(f.topo, e); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	seq, err := f.Submit(e)
	if err == ErrQueueFull {
		// Hint a retry after roughly the time the worker needs to chew
		// through the backlog (it coalesces, so 1s is generous).
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{err.Error()})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
		return
	}
	updateStaleness(s.fabricSlice())
	writeJSON(w, http.StatusAccepted, faultAck{Seq: seq})
}

func (s *Server) fabricSlice() []*Fabric {
	out := make([]*Fabric, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.fabrics[name])
	}
	return out
}

// healthFabric is one fabric's row in /healthz and /readyz.
type healthFabric struct {
	Name         string  `json:"name"`
	Gen          uint64  `json:"gen"`
	Staleness    uint64  `json:"staleness"`
	RepairLagSec float64 `json:"repair_lag_seconds"`
	Degraded     bool    `json:"degraded"`
	Wedged       bool    `json:"wedged"`
	QueueDepth   int     `json:"queue_depth"`
	LastError    string  `json:"last_error,omitempty"`
}

func (s *Server) health() (rows []healthFabric, ready bool) {
	ready = true
	for _, name := range s.order {
		f := s.fabrics[name]
		st := f.State()
		lag := f.RepairLag()
		wedged := lag > s.cfg.WedgeAfter
		if wedged {
			ready = false
		}
		rows = append(rows, healthFabric{
			Name: name, Gen: st.gen, Staleness: f.Staleness(),
			RepairLagSec: lag.Seconds(), Degraded: st.degraded, Wedged: wedged,
			QueueDepth: f.QueueDepth(), LastError: st.lastErr,
		})
	}
	return rows, ready
}

// handleHealthz always answers 200 with per-fabric repair lag: it
// reports liveness plus diagnosis, not fitness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rows, _ := s.health()
	writeJSON(w, http.StatusOK, map[string]any{"fabrics": rows})
}

// handleReadyz answers 503 while any fabric's repair loop is wedged
// (lag beyond WedgeAfter), 200 otherwise — degraded-but-progressing
// fabrics stay ready, they just flag their responses.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	rows, ready := s.health()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ready": ready, "fabrics": rows})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	updateStaleness(s.fabricSlice())
	w.Header().Set("Content-Type", "application/json")
	obs.Default().WriteJSON(w)
}
