package server

// The HTTP surface (stdlib net/http only). Handlers are thin: decode,
// delegate to the Server methods, encode — every policy decision
// (admission, caching, sharding) lives behind the method API so tests
// and other frontends can drive it directly.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"

	"modeldata/internal/obs"
)

// maxBodyBytes bounds request bodies; queries are small JSON documents.
const maxBodyBytes = 1 << 20

// Handler returns the server's HTTP API:
//
//	POST /v1/query       structured aggregate query (QueryRequest)
//	POST /v1/sql         SQL query or EXPLAIN (SQLRequest)
//	GET  /metrics        metrics snapshot (sorted text, one per line)
//	GET  /debug/trace    Chrome trace of spans since the last scrape
//	GET  /debug/pprof/*  runtime profiles
//	GET  /healthz        200 serving / 503 draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/sql", s.handleSQL)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.Query(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleSQL(w http.ResponseWriter, r *http.Request) {
	var req SQLRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	resp, err := s.SQL(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, resp)
}

// handleMetrics renders the registry as sorted "name value" lines.
// In-flight and tenant gauges are refreshed at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.reg.Gauge(MetricInFlight).Set(int64(s.inflight))
	s.reg.Gauge(MetricTenants).Set(int64(len(s.tenants)))
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	writeBody(w, s.reg.Snapshot().String()+"\n")
}

// handleTrace exports the spans recorded since the previous scrape as
// a Chrome trace and installs a fresh tracer, so span memory stays
// bounded however long the process runs.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer.Load() == nil {
		http.Error(w, "tracing disabled (enable Config.Trace)", http.StatusNotFound)
		return
	}
	old := s.tracer.Swap(obs.NewTracer())
	w.Header().Set("Content-Type", "application/json")
	if err := old.WriteChromeTrace(w); err != nil {
		// Headers are gone; all we can do is log via the response.
		fmt.Fprintf(w, "\ntrace export error: %v\n", err)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	writeBody(w, "ok\n")
}

// writeBody writes a rendered text response. A failed write means the
// client went away mid-response; logging it keeps the disconnect from
// vanishing silently (the PR 5 silent-failure rule).
func writeBody(w http.ResponseWriter, body string) {
	if _, err := io.WriteString(w, body); err != nil {
		log.Printf("server: writing response: %v", err)
	}
}

// decodeJSON decodes a bounded JSON body into v. A field v does not
// declare is an error, so a misspelt or retired option is refused
// rather than silently answered with defaults.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("request body: %v", err)
	}
	return nil
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var se *StatusError
	if errors.As(err, &se) {
		code = se.Code
		if se.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfter))
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if encErr := json.NewEncoder(w).Encode(errorResponse{Error: err.Error()}); encErr != nil {
		log.Printf("server: writing error response: %v", encErr)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already written, so the client sees a
		// truncated body; the log line is the server-side signal.
		log.Printf("server: writing response: %v", err)
	}
}
