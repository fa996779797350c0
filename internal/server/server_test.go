package server

// End-to-end tests over httptest: the acceptance criteria of the
// serving layer. The load-bearing assertions are bit-identity — a
// server answer equals a direct mcdb.Session run with the namespaced
// seed, at any shard count — plus cache visibility through /metrics
// and admission behavior under load and drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
	"modeldata/internal/rng"
)

const fixturePatients = 12

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Open == nil {
		cfg.Open = func(string) (*mcdb.DB, error) {
			return experiments.SBPDatabase(fixturePatients)
		}
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post[T any](t *testing.T, url string, req any) (*T, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	out := new(T)
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("response %s: %v", data, err)
	}
	return out, resp
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// directRun reproduces a server aggregate answer with a plain session,
// the way a client holding effective_seed would.
func directRun(t *testing.T, q mcdb.AggQuery, opts mcdb.ExecOptions) []float64 {
	t.Helper()
	db, err := experiments.SBPDatabase(fixturePatients)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := db.NewSession().Exec(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestQueryBitIdenticalToDirectSession is the core acceptance: for a
// fixed (tenant, query, seed, iterations), the served samples equal a
// direct mcdb.Session run with the namespaced effective seed.
func TestQueryBitIdenticalToDirectSession(t *testing.T) {
	const baseSeed = 42
	s, ts := newTestServer(t, Config{BaseSeed: baseSeed})
	req := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg",
		Iterations: 40, Seed: 7}
	resp, _ := post[QueryResponse](t, ts.URL+"/v1/query", req)
	if resp == nil {
		t.Fatal("query failed")
	}
	wantSeed := rng.NamespaceSeed(baseSeed, "acme", 7)
	if resp.EffectiveSeed != wantSeed {
		t.Fatalf("effective_seed = %d, want %d", resp.EffectiveSeed, wantSeed)
	}
	if resp.EffectiveSeed != s.EffectiveSeed("acme", 7) {
		t.Fatal("EffectiveSeed accessor disagrees with response")
	}
	want := directRun(t, mcdb.AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg},
		mcdb.ExecOptions{Iterations: 40, Seed: wantSeed})
	if len(resp.Samples) != 40 {
		t.Fatalf("got %d samples, want 40", len(resp.Samples))
	}
	for i := range want {
		if resp.Samples[i] != want[i] {
			t.Fatalf("iter %d: server %v != direct %v", i, resp.Samples[i], want[i])
		}
	}
	if resp.Summary.N != 40 || resp.Summary.Variance <= 0 {
		t.Fatalf("summary not populated: %+v", resp.Summary)
	}
}

// TestSQLBitIdenticalToDirectSession covers the SQL path the same way,
// including a JOIN against a deterministic table.
func TestSQLBitIdenticalToDirectSession(t *testing.T) {
	const baseSeed = 9
	_, ts := newTestServer(t, Config{BaseSeed: baseSeed})
	const sql = "SELECT AVG(sbp_data.sbp) FROM sbp_data JOIN patients ON sbp_data.pid = patients.pid WHERE patients.gender = 'M'"
	req := SQLRequest{Tenant: "acme", SQL: sql, Iterations: 25, Seed: 3}
	resp, _ := post[SQLResponse](t, ts.URL+"/v1/sql", req)
	if resp == nil {
		t.Fatal("sql query failed")
	}
	db, err := experiments.SBPDatabase(fixturePatients)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.NewSession().ExecSQL(context.Background(), sql,
		mcdb.ExecOptions{Iterations: 25, Seed: rng.NamespaceSeed(baseSeed, "acme", 3)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if resp.Samples[i] != want[i] {
			t.Fatalf("iter %d: server %v != direct %v", i, resp.Samples[i], want[i])
		}
	}
}

// TestShardedMatchesSingleNode is the split-and-merge acceptance: a
// 3-shard server answers bit-identically to a 1-shard server (and thus
// to a direct session), for both query surfaces.
func TestShardedMatchesSingleNode(t *testing.T) {
	_, one := newTestServer(t, Config{BaseSeed: 5, Shards: 1})
	_, three := newTestServer(t, Config{BaseSeed: 5, Shards: 3})

	agg := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "sum",
		Iterations: 31, Seed: 2, Workers: 6}
	r1, _ := post[QueryResponse](t, one.URL+"/v1/query", agg)
	r3, _ := post[QueryResponse](t, three.URL+"/v1/query", agg)
	if r1 == nil || r3 == nil {
		t.Fatal("query failed")
	}
	if r3.Shards != 3 {
		t.Fatalf("shards = %d, want 3", r3.Shards)
	}
	if len(r1.Samples) != 31 || len(r3.Samples) != 31 {
		t.Fatalf("sample counts %d, %d", len(r1.Samples), len(r3.Samples))
	}
	for i := range r1.Samples {
		if r1.Samples[i] != r3.Samples[i] {
			t.Fatalf("agg iter %d: 1-shard %v != 3-shard %v", i, r1.Samples[i], r3.Samples[i])
		}
	}

	sqlReq := SQLRequest{Tenant: "acme", SQL: "SELECT COUNT(pid) FROM sbp_data",
		Iterations: 17, Seed: 8}
	s1, _ := post[SQLResponse](t, one.URL+"/v1/sql", sqlReq)
	s3, _ := post[SQLResponse](t, three.URL+"/v1/sql", sqlReq)
	if s1 == nil || s3 == nil {
		t.Fatal("sql failed")
	}
	for i := range s1.Samples {
		if s1.Samples[i] != s3.Samples[i] {
			t.Fatalf("sql iter %d: 1-shard %v != 3-shard %v", i, s1.Samples[i], s3.Samples[i])
		}
	}
}

// TestTenantSeedNamespacing: the same request under two tenants draws
// from independent seed namespaces, and each is reproducible offline
// from its effective seed.
func TestTenantSeedNamespacing(t *testing.T) {
	_, ts := newTestServer(t, Config{BaseSeed: 77})
	req := QueryRequest{Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 20, Seed: 1}
	req.Tenant = "alpha"
	ra, _ := post[QueryResponse](t, ts.URL+"/v1/query", req)
	req.Tenant = "beta"
	rb, _ := post[QueryResponse](t, ts.URL+"/v1/query", req)
	if ra == nil || rb == nil {
		t.Fatal("query failed")
	}
	if ra.EffectiveSeed == rb.EffectiveSeed {
		t.Fatal("tenants share an effective seed")
	}
	same := true
	for i := range ra.Samples {
		if ra.Samples[i] != rb.Samples[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct tenants produced identical samples")
	}
	for _, r := range []*QueryResponse{ra, rb} {
		want := directRun(t, mcdb.AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg},
			mcdb.ExecOptions{Iterations: 20, Seed: r.EffectiveSeed})
		for i := range want {
			if r.Samples[i] != want[i] {
				t.Fatalf("tenant %s iter %d not reproducible from effective seed", r.Tenant, i)
			}
		}
	}
}

// TestResultCacheHitAndMetrics: a repeated request is served from the
// cache (cached=true, no extra execution) and the server.cache.*
// counters are visible through /metrics.
func TestResultCacheHitAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{BaseSeed: 1})
	req := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg",
		Iterations: 15, Seed: 4}
	first, _ := post[QueryResponse](t, ts.URL+"/v1/query", req)
	second, _ := post[QueryResponse](t, ts.URL+"/v1/query", req)
	if first == nil || second == nil {
		t.Fatal("query failed")
	}
	if first.Cached {
		t.Fatal("first request claims a cache hit")
	}
	if !second.Cached {
		t.Fatal("second identical request missed the cache")
	}
	for i := range first.Samples {
		if first.Samples[i] != second.Samples[i] {
			t.Fatalf("iter %d: cached samples differ", i)
		}
	}
	metrics := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{MetricCacheHits, MetricCacheMisses, MetricAdmitted} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics lacks %s:\n%s", want, metrics)
		}
	}
	if !metricAtLeast(t, metrics, MetricCacheHits, 1) {
		t.Fatalf("server.cache.hits not positive:\n%s", metrics)
	}
}

// metricAtLeast parses one "name value" line of the /metrics text.
func metricAtLeast(t *testing.T, metrics, name string, min int) bool {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == name {
			var v int
			if _, err := fmt.Sscanf(fields[1], "%d", &v); err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v >= min
		}
	}
	return false
}

// TestResultCacheEviction: a tiny result cache under distinct queries
// stays bounded and counts evictions.
func TestResultCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{BaseSeed: 1, ResultCacheCap: 2})
	for seed := uint64(1); seed <= 4; seed++ {
		req := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg",
			Iterations: 8, Seed: seed}
		if resp, _ := post[QueryResponse](t, ts.URL+"/v1/query", req); resp == nil {
			t.Fatal("query failed")
		}
	}
	if n := s.cache.Len(); n > 2 {
		t.Fatalf("result cache holds %d entries, capacity 2", n)
	}
	metrics := getBody(t, ts.URL+"/metrics")
	if !metricAtLeast(t, metrics, MetricCacheEvictions, 2) {
		t.Fatalf("expected ≥2 evictions:\n%s", metrics)
	}
}

// TestPredicatesMatchDirectClosures: JSON predicates on deterministic
// and uncertain columns lower to the same answers as hand-written
// closures on a direct session.
func TestPredicatesMatchDirectClosures(t *testing.T) {
	const baseSeed = 13
	_, ts := newTestServer(t, Config{BaseSeed: baseSeed})
	male := "M"
	req := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "count",
		Where: []Predicate{
			{Col: "gender", Op: "eq", Str: &male},
			{Col: "sbp", Op: "gt", Value: 130},
		},
		Iterations: 30, Seed: 6}
	resp, _ := post[QueryResponse](t, ts.URL+"/v1/query", req)
	if resp == nil {
		t.Fatal("query failed")
	}
	want := directRun(t, mcdb.AggQuery{
		Table: "sbp_data", Col: "sbp", Fn: engine.AggCount,
		WhereDet: func(r engine.Row) bool { return r[1].Equal(engine.Str("M")) },
		WhereUnc: func(det engine.Row, unc []float64) bool { return unc[0] > 130 },
	}, mcdb.ExecOptions{Iterations: 30, Seed: rng.NamespaceSeed(baseSeed, "acme", 6)})
	for i := range want {
		if resp.Samples[i] != want[i] {
			t.Fatalf("iter %d: server %v != direct %v", i, resp.Samples[i], want[i])
		}
	}
}

// TestUncertainPredicateMatchesValueOrder: the mcdb.UncCmp an
// uncertain-column predicate compiles to, run by mcdb's kernel, answers
// exactly as compare's engine.Value form does on two engine.Float
// values — for all six operators over the values where float order is
// not a total order or not obvious: NaN on either side, both
// infinities, both zeros, a denormal, and an ordinary pair. The values
// are the iterations of a one-tuple bundle, and COUNT reads the
// kernel's verdict at each.
func TestUncertainPredicateMatchesValueOrder(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 120.5, 130}
	draws := 0 // one tuple on one worker: its iterations are drawn in order
	spec := &mcdb.TableSpec{
		Name:   "grid",
		Schema: engine.Schema{{Name: "u", Type: engine.TypeFloat}},
		VG: mcdb.VG{Width: 1, Draw: func(_ engine.Row, _ *rng.Stream, out [][]float64) error {
			draws += copy(out[0], vals[draws:])
			return nil
		}},
		UncertainCols: []int{0},
	}
	db := mcdb.New(engine.NewDatabase())
	if err := db.AddSpec(spec); err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	opts := mcdb.ExecOptions{Iterations: len(vals), Workers: 1}
	for _, op := range []string{"eq", "ne", "lt", "le", "gt", "ge"} {
		_, boxed, err := compare(op)
		if err != nil {
			t.Fatal(err)
		}
		for _, lit := range vals {
			preds, err := compileWhere(spec, []Predicate{{Col: "u", Op: op, Value: lit}})
			if err != nil {
				t.Fatal(err)
			}
			if preds.det != nil || len(preds.unc) != 1 {
				t.Fatalf("%s %v: compiled to det %v and %d conjuncts, want one conjunct", op, lit, preds.det != nil, len(preds.unc))
			}
			got, err := sess.Exec(context.Background(), mcdb.AggQuery{Table: "grid", Col: "u",
				Fn: engine.AggCount, UncWhere: preds.unc}, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, u := range vals {
				if want := boxed(engine.Float(u), engine.Float(lit)); (got[i] == 1) != want {
					t.Errorf("%v %s %v: kernel counts %v, engine.Value order %v", u, op, lit, got[i], want)
				}
			}
		}
	}
	if draws != len(vals) {
		t.Fatalf("%d draws, want one realization of %d", draws, len(vals))
	}
}

// TestPagination: pages reassemble the full vector exactly, with
// next_offset chaining and terminating at -1.
func TestPagination(t *testing.T) {
	_, ts := newTestServer(t, Config{BaseSeed: 1})
	full := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg",
		Iterations: 27, Seed: 5}
	whole, _ := post[QueryResponse](t, ts.URL+"/v1/query", full)
	if whole == nil {
		t.Fatal("query failed")
	}
	if whole.NextOffset != -1 {
		t.Fatalf("single-page response has next_offset %d", whole.NextOffset)
	}
	var got []float64
	offset, pages := 0, 0
	for {
		req := full
		req.Offset, req.Limit = offset, 10
		page, _ := post[QueryResponse](t, ts.URL+"/v1/query", req)
		if page == nil {
			t.Fatal("page request failed")
		}
		got = append(got, page.Samples...)
		pages++
		if page.NextOffset < 0 {
			break
		}
		offset = page.NextOffset
	}
	if pages != 3 {
		t.Fatalf("27 samples at limit 10 took %d pages, want 3", pages)
	}
	if len(got) != len(whole.Samples) {
		t.Fatalf("reassembled %d samples, want %d", len(got), len(whole.Samples))
	}
	for i := range got {
		if got[i] != whole.Samples[i] {
			t.Fatalf("iter %d: paged %v != whole %v", i, got[i], whole.Samples[i])
		}
	}
	bad := full
	bad.Offset = 99
	if resp, httpResp := post[QueryResponse](t, ts.URL+"/v1/query", bad); resp != nil || httpResp.StatusCode != 400 {
		t.Fatalf("offset past the end: status %d", httpResp.StatusCode)
	}
}

// TestExplain: /v1/sql with explain returns the cost-based plan
// without executing any iterations.
func TestExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{BaseSeed: 1})
	req := SQLRequest{Tenant: "acme", Explain: true,
		SQL: "SELECT AVG(sbp_data.sbp) FROM sbp_data JOIN patients ON sbp_data.pid = patients.pid"}
	resp, _ := post[SQLResponse](t, ts.URL+"/v1/sql", req)
	if resp == nil {
		t.Fatal("explain failed")
	}
	if !strings.Contains(resp.Plan, "join") {
		t.Fatalf("plan text lacks a join:\n%s", resp.Plan)
	}
	if len(resp.PlanJSON) == 0 || !json.Valid(resp.PlanJSON) {
		t.Fatal("plan_json missing or invalid")
	}
	if len(resp.Samples) != 0 {
		t.Fatal("explain executed samples")
	}
	metrics := getBody(t, ts.URL+"/metrics")
	if !metricAtLeast(t, metrics, MetricExplains, 1) {
		t.Fatalf("server.explains not counted:\n%s", metrics)
	}
}

// TestAdmissionControl exercises the counters directly: the global and
// per-tenant in-flight limits reject with 429 until a release.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{MaxInFlight: 2, TenantMaxInFlight: 1,
		Open: func(string) (*mcdb.DB, error) { return experiments.SBPDatabase(4) }})

	_, rel1, err := s.admit("a")
	if err != nil {
		t.Fatal(err)
	}
	// Tenant limit: a second query for "a" is rejected.
	if _, _, err := s.admit("a"); !isStatus(err, 429) {
		t.Fatalf("tenant overflow: %v", err)
	}
	_, rel2, err := s.admit("b")
	if err != nil {
		t.Fatal(err)
	}
	// Global limit: a third concurrent query is rejected even for a
	// fresh tenant.
	if _, _, err := s.admit("c"); !isStatus(err, 429) {
		t.Fatalf("global overflow: %v", err)
	}
	rel1()
	_, rel3, err := s.admit("c")
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel2()
	rel3()

	reg := s.Stats().Registry()
	if v := reg.Counter(MetricAdmitted).Value(); v != 3 {
		t.Fatalf("admitted = %d, want 3", v)
	}
	if v := reg.Counter(MetricRejectedTenant).Value(); v != 1 {
		t.Fatalf("rejected_tenant = %d, want 1", v)
	}
	if v := reg.Counter(MetricRejectedBusy).Value(); v != 1 {
		t.Fatalf("rejected_busy = %d, want 1", v)
	}
}

func isStatus(err error, code int) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == code
}

// TestDrain: after BeginDrain, new queries get 503 with Retry-After
// and /healthz flips to 503, while /metrics stays readable.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{BaseSeed: 1})
	req := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg",
		Iterations: 5, Seed: 1}
	if resp, _ := post[QueryResponse](t, ts.URL+"/v1/query", req); resp == nil {
		t.Fatal("pre-drain query failed")
	}
	s.BeginDrain()
	resp, httpResp := post[QueryResponse](t, ts.URL+"/v1/query", req)
	if resp != nil || httpResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained server accepted a query: status %d", httpResp.StatusCode)
	}
	if httpResp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d during drain", health.StatusCode)
	}
	if body := getBody(t, ts.URL+"/metrics"); !strings.Contains(body, MetricRejectedDraining) {
		t.Fatalf("drain rejection not counted:\n%s", body)
	}
}

// TestTraceEndpoint: with tracing on, /debug/trace exports spans and
// resets the collector; with tracing off it 404s.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{BaseSeed: 1, Trace: true})
	req := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg",
		Iterations: 5, Seed: 1}
	if resp, _ := post[QueryResponse](t, ts.URL+"/v1/query", req); resp == nil {
		t.Fatal("query failed")
	}
	trace := getBody(t, ts.URL+"/debug/trace")
	if !strings.Contains(trace, "server.query") {
		t.Fatalf("trace lacks the server.query span:\n%.200s", trace)
	}
	// Scraping reset the tracer: an immediate re-scrape is empty of
	// query spans.
	if again := getBody(t, ts.URL+"/debug/trace"); strings.Contains(again, "server.query") {
		t.Fatal("trace scrape did not reset the collector")
	}

	_, off := newTestServer(t, Config{BaseSeed: 1})
	resp, err := http.Get(off.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace endpoint with tracing off: %d", resp.StatusCode)
	}
}

// TestRequestValidation: malformed requests are 4xx, not 500.
func TestRequestValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{BaseSeed: 1, MaxIterations: 100})
	cases := []QueryRequest{
		{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "median", Iterations: 5},
		{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 0},
		{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 101},
		{Tenant: "acme", Table: "nope", Col: "sbp", Fn: "avg", Iterations: 5},
		{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5,
			Where: []Predicate{{Col: "sbp", Op: "like", Value: 1}}},
		{Tenant: "acme", Table: "sbp_data", Col: "nope", Fn: "avg", Iterations: 5},   // unknown column
		{Tenant: "acme", Table: "sbp_data", Col: "gender", Fn: "avg", Iterations: 5}, // deterministic column
		{Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5},                    // no tenant
	}
	for i, req := range cases {
		resp, httpResp := post[QueryResponse](t, ts.URL+"/v1/query", req)
		if resp != nil || httpResp.StatusCode != 400 {
			t.Fatalf("case %d: status %d, want 400", i, httpResp.StatusCode)
		}
	}

	// An offset outside the run's sample vector is refused on entry: the
	// request is not admitted, nothing executes, nothing is cached.
	admitted, misses := s.reg.Counter(MetricAdmitted).Value(), s.reg.Counter(MetricCacheMisses).Value()
	for _, offset := range []int{-1, 6} {
		q := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5, Offset: offset}
		if resp, httpResp := post[QueryResponse](t, ts.URL+"/v1/query", q); resp != nil || httpResp.StatusCode != 400 {
			t.Fatalf("query offset %d: status %d, want 400", offset, httpResp.StatusCode)
		}
		sq := SQLRequest{Tenant: "acme", SQL: "SELECT AVG(sbp) FROM sbp_data", Iterations: 5, Offset: offset}
		if resp, httpResp := post[SQLResponse](t, ts.URL+"/v1/sql", sq); resp != nil || httpResp.StatusCode != 400 {
			t.Fatalf("sql offset %d: status %d, want 400", offset, httpResp.StatusCode)
		}
	}
	if a, m := s.reg.Counter(MetricAdmitted).Value(), s.reg.Counter(MetricCacheMisses).Value(); a != admitted || m != misses {
		t.Fatalf("out-of-range offset ran: admitted %d → %d, cache misses %d → %d", admitted, a, misses, m)
	}

	// A field the request type does not declare — a retired option, a
	// typo — is refused by name, not ignored and answered with defaults.
	for path, fields := range map[string]string{
		"/v1/query": `"tenant":"acme","table":"sbp_data","col":"sbp","fn":"avg","iterations":5`,
		"/v1/sql":   `"tenant":"acme","sql":"SELECT AVG(sbp) FROM sbp_data","iterations":5`,
	} {
		for _, field := range []string{`"strategy":"naive"`, `"iteratons":5`} {
			body := "{" + fields + "," + field + "}"
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			name := field[1:strings.Index(field, `":`)]
			if resp.StatusCode != 400 || !strings.Contains(string(msg), name) {
				t.Fatalf("%s with %s: status %d body %s, want 400 naming %q", path, field, resp.StatusCode, msg, name)
			}
		}
	}
	if resp, httpResp := post[SQLResponse](t, ts.URL+"/v1/sql",
		SQLRequest{Tenant: "acme", SQL: "SELEKT 1", Iterations: 5}); resp != nil || httpResp.StatusCode != 400 {
		t.Fatalf("bad sql: status %d, want 400", httpResp.StatusCode)
	}

	// Unknown tenant on a server without Open.
	sts := httptest.NewServer(New(Config{}).Handler())
	defer sts.Close()
	if resp, httpResp := post[QueryResponse](t, sts.URL+"/v1/query",
		QueryRequest{Tenant: "ghost", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5}); resp != nil || httpResp.StatusCode != 404 {
		t.Fatalf("unknown tenant: status %d, want 404", httpResp.StatusCode)
	}
}

// TestSplitRange pins the window arithmetic.
func TestSplitRange(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{10, 3}, {31, 4}, {5, 8}, {0, 2}, {7, 1}} {
		windows := splitRange(tc.n, tc.k)
		if len(windows) != tc.k {
			t.Fatalf("splitRange(%d,%d): %d windows", tc.n, tc.k, len(windows))
		}
		covered := 0
		lo := 0
		for _, w := range windows {
			if w[0] != lo || w[1] < w[0] {
				t.Fatalf("splitRange(%d,%d): bad window %v at lo=%d", tc.n, tc.k, w, lo)
			}
			covered += w[1] - w[0]
			lo = w[1]
		}
		if covered != tc.n || lo != tc.n {
			t.Fatalf("splitRange(%d,%d) covers %d", tc.n, tc.k, covered)
		}
	}
}

// TestTenantCapBoundsMaterialization is the unbounded-tenant-map
// regression: tenantFor materializes a tenant per unknown name on the
// request path, so any client that can invent names could grow server
// memory forever. Past Config.MaxTenants new names are rejected with
// 429 while existing tenants keep working; preregistration via
// AddTenant stays exempt from the cap.
func TestTenantCapBoundsMaterialization(t *testing.T) {
	s := New(Config{MaxTenants: 2,
		Open: func(string) (*mcdb.DB, error) { return experiments.SBPDatabase(4) }})

	if _, err := s.tenantFor("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.tenantFor("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.tenantFor("c"); !isStatus(err, 429) {
		t.Fatalf("third tenant must hit the cap with 429, got: %v", err)
	}
	// Known tenants are unaffected by the cap.
	if _, err := s.tenantFor("a"); err != nil {
		t.Fatalf("existing tenant rejected after cap: %v", err)
	}
	// The operator path bypasses the cap by design.
	db, err := experiments.SBPDatabase(4)
	if err != nil {
		t.Fatal(err)
	}
	s.AddTenant("ops", db)
	if _, err := s.tenantFor("ops"); err != nil {
		t.Fatalf("preregistered tenant rejected: %v", err)
	}
	if got := s.Stats().Registry().Gauge(MetricTenants).Value(); got != 3 {
		t.Fatalf("tenants gauge = %d, want 3", got)
	}
}

// TestBrokenSpecIs500: a tenant spec that cannot be realized — a
// parameter query that fails, or one handing the Normal VG a negative
// std, which a shard goroutine must not turn into a crash of the
// process — is the server's fault on /v1/sql and /v1/query alike, where
// a statement naming an unknown table stays the client's. The failed
// run counts one cache miss and caches nothing, and the next request is
// answered.
func TestBrokenSpecIs500(t *testing.T) {
	s, ts := newTestServer(t, Config{BaseSeed: 1})
	db, err := experiments.SBPDatabase(fixturePatients)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := db.Spec("sbp_data")
	if err != nil {
		t.Fatal(err)
	}
	unreadable := func(*engine.Database, engine.Row) (engine.Row, error) {
		return nil, fmt.Errorf("parameter table unreadable")
	}
	negativeStd := func(*engine.Database, engine.Row) (engine.Row, error) {
		return engine.Row{engine.Float(120), engine.Float(-1)}, nil
	}
	for name, tenant := range map[string]struct {
		uncertain []int
		params    func(*engine.Database, engine.Row) (engine.Row, error)
	}{
		"broken":     {spec.UncertainCols, unreadable},
		"brokenflat": {nil, unreadable},
		"negstd":     {spec.UncertainCols, negativeStd},
		"negstdflat": {nil, negativeStd},
	} {
		bad := *spec
		bad.UncertainCols, bad.Params = tenant.uncertain, tenant.params
		broken := mcdb.New(db.Base)
		if err := broken.AddSpec(&bad); err != nil {
			t.Fatal(err)
		}
		s.AddTenant(name, broken)
		for _, tc := range []struct {
			path string
			req  any
			want int
		}{
			{"/v1/sql", SQLRequest{Tenant: name, SQL: "SELECT AVG(sbp) FROM sbp_data", Iterations: 5, Seed: 3}, 500},
			{"/v1/query", QueryRequest{Tenant: name, Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5, Seed: 3}, 500},
			{"/v1/sql", SQLRequest{Tenant: "acme", SQL: "SELECT AVG(x) FROM nope", Iterations: 5, Seed: 3}, 400},
		} {
			misses := s.reg.Counter(MetricCacheMisses).Value()
			resp, httpResp := post[QueryResponse](t, ts.URL+tc.path, tc.req)
			if resp != nil || httpResp.StatusCode != tc.want {
				t.Fatalf("%s %s %+v: status %d, want %d", name, tc.path, tc.req, httpResp.StatusCode, tc.want)
			}
			if got := s.reg.Counter(MetricCacheMisses).Value() - misses; got != 1 {
				t.Fatalf("%s %s: %d cache misses counted, want 1", name, tc.path, got)
			}
			if n := s.cache.Len(); n != 0 {
				t.Fatalf("%s %s: failed run left %d cached entries", name, tc.path, n)
			}
		}
	}
	if resp, httpResp := post[QueryResponse](t, ts.URL+"/v1/query",
		QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5, Seed: 3}); resp == nil {
		t.Fatalf("after the broken specs: status %d, want 200", httpResp.StatusCode)
	}
}
