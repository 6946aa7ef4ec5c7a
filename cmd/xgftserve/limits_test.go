package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// serveWithLimits starts newHTTPServer over a loopback listener and
// returns its address.
func serveWithLimits(t *testing.T, lim httpLimits) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}), lim)
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// TestStalledHeaderCutOff pins the slow-client guard: a client that
// sends part of its request headers and then stalls is disconnected
// once the header timeout passes, instead of holding the connection.
func TestStalledHeaderCutOff(t *testing.T) {
	lim := queryLimits
	lim.readHeader = 200 * time.Millisecond
	addr := serveWithLimits(t, lim)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server held a stalled-header connection for %v", time.Since(start))
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("stalled header cut off after %v, want about %v", d, lim.readHeader)
	}
}

// TestOversizedHeaderRejected pins the header cap: a request whose
// headers exceed it is answered 431 without reaching the handler.
func TestOversizedHeaderRejected(t *testing.T) {
	lim := queryLimits
	lim.maxHeaderBytes = 1 << 10
	addr := serveWithLimits(t, lim)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	req := "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: " + strings.Repeat("a", 16<<10) + "\r\n\r\n"
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Fatalf("oversized header: status %d, want 431", resp.StatusCode)
	}
}

// TestServerLimitsSet pins that both listeners carry every limit.
func TestServerLimitsSet(t *testing.T) {
	for name, lim := range map[string]httpLimits{"query": queryLimits, "pprof": pprofLimits} {
		hs := newHTTPServer(nil, lim)
		if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 || hs.MaxHeaderBytes <= 0 {
			t.Errorf("%s server missing a limit: %+v", name, lim)
		}
	}
	if pprofLimits.write <= 30*time.Second {
		t.Errorf("pprof write timeout %v cannot fit the default 30 s CPU profile", pprofLimits.write)
	}
}
