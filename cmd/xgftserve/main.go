// Command xgftserve is the long-running routing control plane: it
// compiles routing tables for one or more named fabrics, serves path /
// LID / max-load queries over HTTP, and ingests live fault and repair
// events that are journaled, delta-repaired and applied as atomic
// table swaps. Restarts replay the write-ahead fault journal, so a
// killed server converges back to the degraded state it was serving.
//
// Usage:
//
//	xgftserve -dir /var/lib/xgft -fabric "edge:2;4,4;1,4:d-mod-k:4" \
//	          -fabric "pod:3;2,2,2;1,2,2:disjoint:2" -addr :8080
//
// Endpoints: GET /fabrics, /fabrics/{name}/path?src=&dst=,
// /fabrics/{name}/lid?dst=, /fabrics/{name}/maxload?pattern=,
// /fabrics/{name}/state; POST /fabrics/{name}/faults; GET /healthz,
// /readyz, /metrics. The bound address is printed as "listening on
// ADDR" once the listener is up (useful with -addr 127.0.0.1:0).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"xgftsim/internal/cliutil"
	"xgftsim/internal/serve"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// httpLimits bounds what one slow or oversized client can hold of a
// listener: the time to send its headers and its whole request, the
// time to take the response, how long an idle keep-alive connection
// stays open, and the header size.
type httpLimits struct {
	readHeader, read, write, idle time.Duration
	maxHeaderBytes                int
}

// queryLimits guard the query API. Responses get a minute: maxload and
// /state on large fabrics take up to about a second.
var queryLimits = httpLimits{
	readHeader:     5 * time.Second,
	read:           30 * time.Second,
	write:          time.Minute,
	idle:           2 * time.Minute,
	maxHeaderBytes: 64 << 10,
}

// pprofLimits guard the profiling listener; its write budget fits a
// CPU profile or execution trace of up to five minutes.
var pprofLimits = httpLimits{
	readHeader:     5 * time.Second,
	read:           30 * time.Second,
	write:          6 * time.Minute,
	idle:           2 * time.Minute,
	maxHeaderBytes: 64 << 10,
}

// newHTTPServer returns a server for h with the given limits.
func newHTTPServer(h http.Handler, lim httpLimits) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: lim.readHeader,
		ReadTimeout:       lim.read,
		WriteTimeout:      lim.write,
		IdleTimeout:       lim.idle,
		MaxHeaderBytes:    lim.maxHeaderBytes,
	}
}

// fabricList collects repeated -fabric flags.
type fabricList []string

func (f *fabricList) String() string { return strings.Join(*f, " ") }
func (f *fabricList) Set(s string) error {
	*f = append(*f, s)
	return nil
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xgftserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var fabrics fabricList
	fs.Var(&fabrics, "fabric", `fabric spec NAME:XGFT[:SCHEME[:K[:SEED]]] (repeatable), e.g. "edge:2;4,4;1,4:d-mod-k:4"`)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use port 0 for an ephemeral port)")
	dir := fs.String("dir", "", "journal directory (required; created if missing)")
	queue := fs.Int("queue", 1024, "per-fabric bounded event queue size (full queue answers 429)")
	repairTimeout := fs.Duration("repair-timeout", 30*time.Second, "per-rebuild time budget before the fabric is marked degraded")
	wedgeAfter := fs.Duration("wedge-after", 10*time.Second, "repair lag past which /readyz reports the fabric wedged")
	budget := fs.Int64("table-budget", 1<<30, "compiled-table byte budget per fabric (bigger fabrics serve lazily)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this separate address (off when empty; never on the query listener)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, "xgftserve:", err)
		fs.Usage()
		return 2
	}
	if len(fabrics) == 0 {
		return usage(fmt.Errorf("need at least one -fabric"))
	}
	if *dir == "" {
		return usage(fmt.Errorf("need -dir for the fault journals"))
	}
	specs := make([]serve.FabricSpec, 0, len(fabrics))
	for _, raw := range fabrics {
		spec, err := serve.ParseFabricSpec(raw)
		if err != nil {
			return usage(err)
		}
		specs = append(specs, spec)
	}

	srv, err := serve.New(serve.Config{
		Fabrics:       specs,
		Dir:           *dir,
		QueueSize:     *queue,
		RepairTimeout: *repairTimeout,
		WedgeAfter:    *wedgeAfter,
		TableBudget:   *budget,
	})
	if err != nil {
		fmt.Fprintln(stderr, "xgftserve:", err)
		return 1
	}
	defer srv.Close()

	ctx, stop := cliutil.WithInterrupt(context.Background())
	defer stop()
	srv.Start(ctx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "xgftserve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())

	// Profiling stays on its own listener so it can bind a loopback
	// or firewalled port while the query API is exposed; empty -pprof
	// (the default) never registers the handlers anywhere.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(stderr, "xgftserve: pprof:", err)
			return 1
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(stdout, "pprof on %s\n", pln.Addr())
		go func() {
			ps := newHTTPServer(pmux, pprofLimits)
			ps.Serve(pln)
		}()
	}

	// The journal directory is self-describing: a manifest stamps the
	// exact flag values (including whether pprof was exposed) of the
	// serving run. Best effort — serving proceeds if the write fails.
	man := cliutil.NewManifest("xgftserve")
	man.Flags = cliutil.FlagValues(fs)
	if err := man.WriteFile(*dir); err != nil {
		fmt.Fprintln(stderr, "xgftserve: manifest:", err)
	}
	for _, spec := range specs {
		f := srv.Fabric(spec.Name)
		fmt.Fprintf(stdout, "fabric %s: %s %s K=%d seed=%d mode=%s gen=%d\n",
			spec.Name, spec.XGFT, spec.Scheme, spec.K, spec.Seed, f.Mode(), f.Gen())
	}

	hs := newHTTPServer(srv.Handler(), queryLimits)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting, finish in-flight requests.
		// The journal is already durable — anything accepted survives.
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutCtx)
		fmt.Fprintln(stdout, "interrupted: journals sealed, shutting down")
		return 0
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "xgftserve:", err)
			return 1
		}
		return 0
	}
}
