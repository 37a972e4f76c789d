package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugRoutes lists the route patterns RegisterDebug mounts. Every server
// that embeds the debug surface (obs.ServeDebug, internal/serve) mounts
// exactly these paths through RegisterDebug, so a parity test can assert the
// surfaces cannot drift apart.
func DebugRoutes() []string {
	return []string{
		"/debug/pprof/",
		"/debug/flight",
		"/metrics",
	}
}

// RegisterDebug mounts the debug surface onto an existing mux:
//
//	/debug/pprof/   CPU, heap, goroutine, ... profiles (net/http/pprof)
//	/debug/flight   flight-recorder dump: the most recent retained traces
//	/metrics        Prometheus text exposition of the registry
//
// It is the single construction path for these routes — DebugMux and any
// API server wanting the same surface call it. A nil registry uses
// Default(); a nil recorder uses DefaultFlight().
func RegisterDebug(mux *http.ServeMux, r *Registry, fr *FlightRecorder) {
	if r == nil {
		r = Default()
	}
	if fr == nil {
		fr = DefaultFlight()
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := fr.WriteJSON(w); err != nil {
			// The connection died mid-dump; nothing useful left to do.
			return
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// The connection died mid-dump; nothing useful left to do.
			return
		}
	})
}

// DebugMux returns an http.ServeMux exposing the RegisterDebug surface plus
// a plain index at /. A nil registry uses Default(); a nil recorder uses
// DefaultFlight().
func DebugMux(r *Registry, fr *FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	RegisterDebug(mux, r, fr)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "dime debug server")
		fmt.Fprintln(w, "  /debug/pprof/   profiles")
		fmt.Fprintln(w, "  /debug/flight   flight-recorder dump (recent retained traces)")
		fmt.Fprintln(w, "  /metrics        Prometheus text exposition")
	})
	return mux
}

// DebugServer is a running debug HTTP server; Close shuts it down.
type DebugServer struct {
	srv *http.Server
	ln  net.Listener
}

// Addr returns the bound address (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and its listener.
func (s *DebugServer) Close() error { return s.srv.Close() }

// ServeDebug binds addr (e.g. ":6060", "127.0.0.1:0") and serves DebugMux in
// a background goroutine, so long batch and experiment runs can be profiled
// live. A nil registry uses Default(); a nil recorder uses DefaultFlight().
func ServeDebug(addr string, r *Registry, fr *FlightRecorder) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server: %w", err)
	}
	srv := &http.Server{Handler: DebugMux(r, fr)}
	go func() {
		// Serve returns ErrServerClosed on Close; other errors have no
		// receiver once we are detached.
		_ = srv.Serve(ln)
	}()
	return &DebugServer{srv: srv, ln: ln}, nil
}
