package httpx

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestNewServerAppliesTimeouts checks the hardened timeouts on NewServer
// and on the server Serve starts, which every command's listener uses.
func TestNewServerAppliesTimeouts(t *testing.T) {
	served, _, err := Serve("127.0.0.1:0", http.NewServeMux())
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	for name, srv := range map[string]*http.Server{"NewServer": NewServer(http.NewServeMux()), "Serve": served} {
		if srv.ReadHeaderTimeout != ReadHeaderTimeout {
			t.Fatalf("%s: ReadHeaderTimeout = %v, want %v", name, srv.ReadHeaderTimeout, ReadHeaderTimeout)
		}
		if srv.IdleTimeout != IdleTimeout {
			t.Fatalf("%s: IdleTimeout = %v, want %v", name, srv.IdleTimeout, IdleTimeout)
		}
		if srv.WriteTimeout != 0 {
			t.Fatalf("%s: WriteTimeout = %v, want 0 (streaming responses)", name, srv.WriteTimeout)
		}
	}
}

// TestServeMountsPprof: Serve answers on the address it returns, and
// HandlePprof's index lists the goroutine profile. An unusable address is
// the listen's error, before anything is served.
func TestServeMountsPprof(t *testing.T) {
	mux := http.NewServeMux()
	HandlePprof(mux)
	srv, addr, err := Serve("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("GET /debug/pprof/ = %s, body without the goroutine profile", resp.Status)
	}
	if _, _, err := Serve("256.0.0.1:-1", mux); err == nil {
		t.Fatal("no error for an unusable address")
	}
}

// TestShutdownBoundedByContext proves a drain cannot hang on a client that
// never finishes reading its response: the context expires and Shutdown
// force-closes the connection instead of waiting forever.
func TestShutdownBoundedByContext(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/hang", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		<-release // hold the request open past the drain deadline
	})
	srv := NewServer(mux)
	go srv.Serve(ln)

	resp, err := http.Get("http://" + ln.Addr().String() + "/hang")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = Shutdown(ctx, srv)
	close(release)
	if err == nil {
		t.Fatal("Shutdown returned nil despite a hung in-flight request")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Shutdown took %v, want bounded by the 50ms context", took)
	}
}

func TestShutdownCleanWhenIdle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	})
	srv := NewServer(mux)
	go srv.Serve(ln)
	resp, err := http.Get("http://" + ln.Addr().String() + "/ok")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := Shutdown(ctx, srv); err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
}
