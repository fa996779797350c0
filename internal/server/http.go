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
	"sync"

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
	writeJSON(w, resp.appendJSON)
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
	writeJSON(w, resp.appendJSON)
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

// bodies pools response buffers: a page of samples is ~14 KB of text,
// and a buffer that grew to hold one is reused by the next request. A
// fresh one (the pool is emptied by the collector) starts large enough
// for an error or a short answer without a chain of regrowths.
var bodies = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// maxPooledBody keeps a buffer that grew for one outsized use (a large
// lineage page, the text of a 100 000-sample vector) from living on in
// the pool.
const maxPooledBody = 1 << 20

// writeJSON encodes a response into a buffer and writes it in one
// piece. Encoding comes first so that a value that cannot be encoded —
// a non-finite number, a malformed plan — is answered with an error
// status and the error envelope, never with 200 and an empty body.
func writeJSON(w http.ResponseWriter, encode func([]byte) ([]byte, error)) {
	buf := bodies.Get().(*[]byte)
	body, err := encode((*buf)[:0])
	code := http.StatusOK
	if err != nil {
		code = http.StatusInternalServerError
		var se *StatusError
		if errors.As(err, &se) {
			code = se.Code
			if se.RetryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(se.RetryAfter))
			}
		}
		body = append(appendString(append(body[:0], `{"error":`...), err.Error()), '}', '\n')
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	if _, err := w.Write(body); err != nil {
		log.Printf("server: writing response: %v", err)
	}
	putBody(buf, body)
}

// putBody returns buf, now holding b, to the pool.
func putBody(buf *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*buf = b
		bodies.Put(buf)
	}
}

// writeError answers with err's status and the JSON error envelope
// {"error": "..."}: a response whose encoding fails before it starts.
func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, func(b []byte) ([]byte, error) { return b, err })
}
