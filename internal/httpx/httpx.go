// Package httpx is the hardened http.Server configuration shared by every
// listener the commands open: the dncserved job service, dncworker's
// -metrics-addr and dncbench's -http. All three serve long-running
// processes whose exit path is a graceful drain, so the server must never
// let a stalled or hostile client pin a connection open indefinitely:
// headers that never finish arriving and idle keep-alive connections both
// get bounded, and shutdown itself is bounded by a context with a hard
// close as the fallback.
package httpx

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server timeouts. WriteTimeout is deliberately absent: the service streams
// unbounded JSONL result sets and pprof profiles over single responses, and
// a fixed write budget would sever legitimate slow readers; handlers bound
// their own lifetime via request/drain contexts instead.
const (
	// ReadHeaderTimeout bounds how long a client may take to send the
	// request header (a slowloris mitigation).
	ReadHeaderTimeout = 10 * time.Second
	// IdleTimeout reclaims keep-alive connections with no in-flight
	// request so they cannot accumulate across a long-lived process.
	IdleTimeout = 120 * time.Second
)

// NewServer returns an http.Server for h with the package's hardened
// timeouts applied.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: ReadHeaderTimeout,
		IdleTimeout:       IdleTimeout,
	}
}

// Serve binds addr (e.g. "localhost:6060", or ":0" for any port) and
// serves h on a NewServer in the background. It returns the serving server
// and the bound address; stop it with Shutdown or Close. The only error is
// the listen's.
func Serve(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := NewServer(h)
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// HandlePprof mounts the net/http/pprof handlers under /debug/pprof/ on
// mux — a private mux, so servers can be built and discarded without
// touching http.DefaultServeMux. Heap and goroutine profiles with ?debug=1
// carry the memory statistics and goroutine count.
func HandlePprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Shutdown drains srv gracefully — no new connections, in-flight requests
// allowed to finish — until ctx expires, at which point remaining
// connections are forcibly closed. It therefore always terminates: a client
// that refuses to finish its request delays process exit by at most the
// context bound. The graceful path's error is returned; a forced close
// after an expired context reports the context's error.
func Shutdown(ctx context.Context, srv *http.Server) error {
	err := srv.Shutdown(ctx)
	if err != nil {
		srv.Close()
	}
	return err
}
