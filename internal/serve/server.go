package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Server binds the Handler surface to a listener and owns graceful
// shutdown: Shutdown first drains the discovery pool (queued and running
// jobs complete; new mutations get 503), then closes the HTTP listener
// waiting out in-flight requests.
type Server struct {
	svc *Service
	srv *http.Server
	ln  net.Listener
}

// NewServer builds the service and its HTTP server (unbound; call Start).
func NewServer(opts Options) *Server {
	svc := NewService(opts)
	return &Server{
		svc: svc,
		srv: &http.Server{
			Handler:           Handler(svc),
			ReadHeaderTimeout: 10 * time.Second,
		},
	}
}

// Service returns the underlying service (profile registration, tests).
func (s *Server) Service() *Service { return s.svc }

// Start binds addr (e.g. ":8080", "127.0.0.1:0") and serves in a background
// goroutine.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.ln = ln
	go func() {
		// Serve returns ErrServerClosed on Shutdown; other errors have no
		// receiver once we are detached.
		_ = s.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully stops the server: the service flips to draining
// (healthz and mutations report 503), the job pool finishes queued and
// running discoveries, and the HTTP server stops accepting connections and
// waits for in-flight requests — all bounded by ctx. The first error wins,
// but both phases always run.
func (s *Server) Shutdown(ctx context.Context) error {
	drainErr := s.svc.Drain(ctx)
	httpErr := s.srv.Shutdown(ctx)
	if drainErr != nil {
		return drainErr
	}
	return httpErr
}

// Close force-closes the listener and connections (tests, error paths).
func (s *Server) Close() error { return s.srv.Close() }
