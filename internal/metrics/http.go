package metrics

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// Handler returns an http.Handler serving the registry in the Prometheus
// text format; with ?format=json (or an Accept header preferring
// application/json) it serves the JSON rendering instead.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			if err := r.WriteJSON(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// StatsHandler returns an http.Handler serving snapshot() as indented
// JSON — how the daemons mount their Stats() as /stats next to /metrics.
func StatsHandler(snapshot func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// NewMux builds the introspection mux served by Serve:
//
//   - /metrics — the registry (Prometheus text, or JSON via ?format=json)
//   - /healthz — 200 "ok" while healthy (or healthy == nil), 503 with the
//     error text otherwise
//   - /debug/pprof/ — the standard runtime profiles
func NewMux(r *Registry, healthy func() error) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if healthy != nil {
			if err := healthy(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running introspection endpoint. Create with Serve, stop with
// Close.
type Server struct {
	ln  net.Listener
	mux *http.ServeMux
	srv *http.Server
}

// CloseGrace is how long Close waits for in-flight requests (a /metrics
// scrape mid-body, a pprof profile, a streaming subscriber draining its
// last batch) before force-closing their connections.
const CloseGrace = time.Second

// Serve binds addr (host:port, port 0 for ephemeral) and serves the
// introspection mux for reg on it. healthy, when non-nil, backs /healthz.
func Serve(addr string, reg *Registry, healthy func() error) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	mux := NewMux(reg, healthy)
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
	go srv.Serve(ln)
	return &Server{ln: ln, mux: mux, srv: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle registers an extra handler on the introspection mux — how the
// subscription API (/subscribe, /query, /topk) mounts next to /metrics.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// Close stops the server gracefully: the listener closes immediately,
// in-flight requests get up to CloseGrace to finish their bodies (so a
// scrape racing Close still reads a complete exposition and a streaming
// subscriber sees a clean EOF rather than a mid-body reset), and
// whatever is still running after the grace is force-closed.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), CloseGrace)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		// Still-running handlers (a hung client, an endless stream) have
		// had their chance; sever them.
		return s.srv.Close()
	}
	return err
}
