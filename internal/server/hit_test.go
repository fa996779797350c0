package server

// What a result-cache hit serves and what it costs: the body of a hit
// is the miss's body with the cached literal flipped, on every page of
// every kind of query; a hit does no work per sample; and an answer
// JSON cannot carry is an error that is neither cached nor counted.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
)

// serve sends one request straight to the handler (no socket) and
// returns status and body.
func serve(t *testing.T, s *Server, path string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// fixtureServer is newTestServer without the listener: these tests
// build a server per page and drive its handler directly.
func fixtureServer(cfg Config) *Server {
	cfg.Open = func(string) (*mcdb.DB, error) { return experiments.SBPDatabase(fixturePatients) }
	return New(cfg)
}

func counter(s *Server, name string) int64 { return s.reg.Counter(name).Value() }

func TestHitEqualsMissOverPages(t *testing.T) {
	const pageSize = 1000
	male := "M"
	kinds := map[string]struct {
		path string
		req  func(iters, offset, limit int) any
	}{
		"plain": {"/v1/query", func(iters, offset, limit int) any {
			return QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg",
				Where:      []Predicate{{Col: "sbp", Op: "gt", Value: 110}},
				Iterations: iters, Seed: 3, Offset: offset, Limit: limit}
		}},
		"whatif": {"/v1/query", func(iters, offset, limit int) any {
			return QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "sum",
				WhatIf:     &WhatIf{Col: "sbp", Scale: 1e-9, Shift: 1e-8, Where: []Predicate{{Col: "gender", Op: "eq", Str: &male}}},
				Iterations: iters, Seed: 3, Offset: offset, Limit: limit}
		}},
		"lineage": {"/v1/query", func(iters, offset, limit int) any {
			return QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "count",
				Where:      []Predicate{{Col: "sbp", Op: "gt", Value: 120}},
				Iterations: iters, Seed: 3, Offset: offset, Limit: limit, Lineage: true}
		}},
		"sql": {"/v1/sql", func(iters, offset, limit int) any {
			return SQLRequest{Tenant: "acme", SQL: "SELECT AVG(sbp) FROM sbp_data",
				Iterations: iters, Seed: 3, Offset: offset, Limit: limit}
		}},
	}
	for name, kind := range kinds {
		for _, iters := range []int{1, 250, 2500} {
			if name == "sql" && iters > 250 {
				continue // per-instance execution; the page arithmetic is the same code
			}
			pages := [][2]int{
				{0, 0}, {0, 1}, {0, iters}, {0, pageSize + 500}, // limit 0, one sample, everything, clamped
				{iters, 0}, {iters, 3}, // the empty page at the end
				{iters - 1, 5}, {iters / 2, 7}, {iters / 3, pageSize},
			}
			// One fresh server per page gives the miss's body for it.
			miss := make([][]byte, len(pages))
			for i, p := range pages {
				code, body := serve(t, fixtureServer(Config{BaseSeed: 9, Shards: 2}), kind.path, kind.req(iters, p[0], p[1]))
				if code != 200 || !bytes.Contains(body, []byte(`"cached":false`)) {
					t.Fatalf("%s/%d page %v: miss answered %d %s", name, iters, p, code, body)
				}
				miss[i] = bytes.Replace(body, []byte(`"cached":false`), []byte(`"cached":true`), 1)
			}
			// One server takes the miss, then every page twice: the
			// first hit builds the entry's text, all later ones copy it.
			s := fixtureServer(Config{BaseSeed: 9, Shards: 2})
			serve(t, s, kind.path, kind.req(iters, 0, 0))
			for round := 0; round < 2; round++ {
				for i, p := range pages {
					code, body := serve(t, s, kind.path, kind.req(iters, p[0], p[1]))
					if code != 200 || !bytes.Equal(body, miss[i]) {
						t.Fatalf("%s/%d page %v, hit round %d: status %d\n got %s\nwant %s",
							name, iters, p, round, code, body, miss[i])
					}
				}
			}
			hits, n := counter(s, MetricCacheHits), int64(2*len(pages))
			if misses, admitted := counter(s, MetricCacheMisses), counter(s, MetricAdmitted); hits != n || misses != 1 || admitted != n+1 {
				t.Fatalf("%s/%d: hits %d misses %d admitted %d, want %d 1 %d", name, iters, hits, misses, admitted, n, n+1)
			}
		}
	}
}

// TestHitWithoutRoomForText: an entry the byte budget admits only
// bare still answers every hit with the miss's bytes, formatting its
// page, and the gauge stays at the vector's size.
func TestHitWithoutRoomForText(t *testing.T) {
	const iters = 250
	s := fixtureServer(Config{BaseSeed: 9, CacheMaxBytes: iters*8 + 100})
	req := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: iters, Seed: 3}
	_, miss := serve(t, s, "/v1/query", req)
	want := bytes.Replace(miss, []byte(`"cached":false`), []byte(`"cached":true`), 1)
	for i := 0; i < 2; i++ {
		if code, body := serve(t, s, "/v1/query", req); code != 200 || !bytes.Equal(body, want) {
			t.Fatalf("hit %d: status %d\n got %s\nwant %s", i, code, body, want)
		}
		if got := s.reg.Gauge(MetricCacheBytes).Value(); got != iters*8 {
			t.Fatalf("hit %d: gauge %d, want %d", i, got, iters*8)
		}
	}
	if hits := counter(s, MetricCacheHits); hits != 2 {
		t.Fatalf("hits %d, want 2", hits)
	}
}

// TestConcurrentFirstHits: first hits racing on one entry each build
// its text, one of them retains it, and every answer is the right one
// while other keys churn the byte budget underneath.
func TestConcurrentFirstHits(t *testing.T) {
	const iters, clients = 600, 8
	page := func(i int) QueryRequest {
		return QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg",
			Iterations: iters, Seed: 3, Offset: (i % 7) * 100, Limit: 100}
	}
	ref := fixtureServer(Config{BaseSeed: 9})
	serve(t, ref, "/v1/query", page(0))
	want := make([][]byte, 7)
	for i := range want {
		_, want[i] = serve(t, ref, "/v1/query", page(i))
	}
	// Room for the entry with its text and little else, so the churn
	// below evicts and re-admits it.
	s := fixtureServer(Config{BaseSeed: 9, CacheMaxBytes: iters * (8 + maxSampleText + 4) * 2})
	serve(t, s, "/v1/query", page(0))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < c+40; i++ {
				if c == 0 {
					other := page(0)
					other.Seed = uint64(100 + i)
					serve(t, s, "/v1/query", other)
					continue
				}
				_, body := serve(t, s, "/v1/query", page(i))
				body = bytes.Replace(body, []byte(`"cached":false`), []byte(`"cached":true`), 1)
				if !bytes.Equal(body, want[i%7]) {
					t.Errorf("client %d request %d:\n got %s\nwant %s", c, i, body, want[i%7])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got, max := s.reg.Gauge(MetricCacheBytes).Value(), s.cfg.CacheMaxBytes; got < 0 || got > max {
		t.Fatalf("cache bytes %d outside [0, %d]", got, max)
	}
}

// poolIsLossy is set in race builds (race_test.go).
var poolIsLossy bool

// TestCacheHitDoesNoPerSampleWork: serving a warmed key allocates the
// same, in count and in bytes, whether the page holds 100 samples or
// 10 000 — nothing on the hit path formats, boxes, copies or sorts a
// sample (Summarize alone copied the vector to sort it). It counts the
// hit alone by keeping the response-buffer pool's buffer in reach: a
// hit that finds the pool empty grows a fresh buffer to the page's size
// — at 10 000 samples ≈ 200 KB, ≈ 4 KB per hit over the 50 runs. A
// collection can empty the pool, and so can a hit that runs on another
// P than the one whose private slot holds the buffer, so the garbage
// collector is off and one P runs everything, as in AllocsPerRun.
func TestCacheHitDoesNoPerSampleWork(t *testing.T) {
	const runs = 50
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(iters int) (allocs float64, perRun uint64) {
		s := fixtureServer(Config{BaseSeed: 1, PageSize: 10000})
		h := s.Handler()
		body, err := json.Marshal(QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg",
			Iterations: iters, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		send := func() {
			rec.Body.Reset()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
		}
		send() // miss
		send() // first hit: retains the text
		send() // grows the recorder's buffer to the body's size
		if n := bytes.Count(rec.Body.Bytes(), []byte(",")); rec.Code != 200 || n < iters {
			t.Fatalf("%d iterations: status %d, %d separators in the body", iters, rec.Code, n)
		}
		allocs = testing.AllocsPerRun(runs, send)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			send()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	smallN, smallB := measure(100)
	largeN, largeB := measure(10000)
	if (largeN > smallN+2 || largeN < smallN-2) && !poolIsLossy {
		t.Errorf("a hit allocates %.0f times at 100 iterations and %.0f at 10000", smallN, largeN)
	}
	if largeB > smallB+1024 && !poolIsLossy {
		t.Errorf("a hit allocates %d bytes at 100 iterations and %d at 10000", smallB, largeB)
	}
}

// TestNonFiniteAnswerIs422: a what-if scale that overflows float64
// makes every sample +Inf. That used to be 200 with an empty body (the
// status line was out before encoding/json refused the value), cached
// and counted as served.
func TestNonFiniteAnswerIs422(t *testing.T) {
	s := fixtureServer(Config{BaseSeed: 1})
	req := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "sum",
		WhatIf: &WhatIf{Col: "sbp", Scale: 1e308}, Iterations: 20, Seed: 2}
	for attempt := 1; attempt <= 2; attempt++ {
		code, body := serve(t, s, "/v1/query", req)
		var env struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("status %d, body %q: %v", code, body, err)
		}
		if code != 422 || !strings.Contains(env.Error, "iteration 0") || !strings.Contains(env.Error, "+Inf") {
			t.Fatalf("status %d, error %q; want 422 naming iteration 0 and +Inf", code, env.Error)
		}
		if n := s.cache.Len(); n != 0 {
			t.Fatalf("the unrepresentable vector was cached (%d entries)", n)
		}
		if served, misses := counter(s, MetricQueries), counter(s, MetricCacheMisses); served != 0 || misses != int64(attempt) {
			t.Fatalf("attempt %d: server.queries %d (want 0), misses %d", attempt, served, misses)
		}
	}
	// Finite samples whose variance overflows are refused the same way.
	req.WhatIf.Scale = 1e160
	req.Fn = "avg"
	if code, body := serve(t, s, "/v1/query", req); code != 422 || !bytes.Contains(body, []byte("summary")) {
		t.Fatalf("overflowing variance: status %d, body %s", code, body)
	}
	if n := s.cache.Len(); n != 0 {
		t.Fatalf("the unrepresentable summary was cached (%d entries)", n)
	}
}
