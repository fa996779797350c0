// Package server is the serving layer over the Monte Carlo Database:
// a multi-tenant query service hosting many concurrent mcdb.Sessions
// behind an HTTP/JSON API (stdlib net/http only). It owns the concerns
// a long-running process adds on top of a correct library — tenant
// isolation (per-tenant seed namespaces split from one base stream),
// admission control (global and per-tenant in-flight limits, per-query
// worker budgets), a bounded result cache, sharded execution that is
// bit-identical to a single-node run, paginated result delivery, and
// graceful drain.
//
// Determinism is the load-bearing wall: because a (tenant, query, seed,
// iterations) tuple always produces the same samples at any worker
// count and any shard split, results are cacheable, shardable, and
// reproducible offline by a client holding the response's
// effective_seed.
package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"modeldata/internal/lru"
	"modeldata/internal/mcdb"
	"modeldata/internal/obs"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// Metric names reported into the server's registry, which also receives
// the mcdb.realize_cache_* counters of every session the server drives
// (the request context carries the server's parallel.Stats). DESIGN.md
// §8 documents the naming scheme.
const (
	// MetricAdmitted counts requests that passed admission control.
	MetricAdmitted = "server.admitted"
	// MetricRejectedBusy counts requests rejected by the global
	// in-flight limit.
	MetricRejectedBusy = "server.rejected_busy"
	// MetricRejectedTenant counts requests rejected by a per-tenant
	// in-flight limit.
	MetricRejectedTenant = "server.rejected_tenant"
	// MetricRejectedDraining counts requests rejected because the
	// server was shutting down.
	MetricRejectedDraining = "server.rejected_draining"
	// MetricInFlight gauges the queries currently executing.
	MetricInFlight = "server.inflight"
	// MetricTenants gauges the tenants currently registered.
	MetricTenants = "server.tenants"
	// MetricCacheHits counts queries answered from the result cache.
	MetricCacheHits = "server.cache.hits"
	// MetricCacheMisses counts queries that had to execute.
	MetricCacheMisses = "server.cache.misses"
	// MetricCacheEvictions counts result vectors dropped by the LRU —
	// whether for entry count, byte budget, staleness, or being too
	// large to cache at all.
	MetricCacheEvictions = "server.cache.evictions"
	// MetricCacheBytes gauges the bytes currently held by the result
	// cache: per resident entry the sample vector, its lineage rows and,
	// once a hit has retained them, the samples' JSON text and offsets
	// (resultBytes). Keys and summaries are not counted.
	MetricCacheBytes = "server.cache.bytes"
	// MetricQueries counts structured aggregate queries served.
	MetricQueries = "server.queries"
	// MetricSQL counts SQL queries served.
	MetricSQL = "server.sql"
	// MetricExplains counts EXPLAIN requests served.
	MetricExplains = "server.explains"
)

// Config sizes and wires a Server. The zero value of every limit field
// selects a sensible default (see the constants below); Open is the
// only field most deployments must set.
type Config struct {
	// BaseSeed roots the per-tenant seed namespaces. Two servers with
	// the same BaseSeed answer identically; changing it re-keys every
	// tenant at once.
	BaseSeed uint64
	// Shards is the number of backend shards each query's iteration
	// range is partitioned across (1 = single-node execution).
	Shards int
	// MaxInFlight bounds concurrently executing queries server-wide.
	MaxInFlight int
	// TenantMaxInFlight bounds concurrently executing queries per
	// tenant, so one tenant cannot starve the rest.
	TenantMaxInFlight int
	// MaxWorkers caps the per-query worker budget. A request's workers
	// field is clamped to [1, MaxWorkers] and divided across shards.
	MaxWorkers int
	// MaxIterations bounds the iterations a single request may ask for.
	MaxIterations int
	// ResultCacheCap bounds the result cache (sample vectors retained).
	ResultCacheCap int
	// CacheMaxBytes bounds the result cache by payload bytes: inserting
	// past the budget evicts least-recently-used entries, and a single
	// result larger than the whole budget is simply not cached.
	CacheMaxBytes int64
	// PageSize caps samples per response page; requests asking for more
	// are clamped.
	PageSize int
	// MaxTenants bounds how many tenants the server will materialize
	// through Open. Each tenant pins a database plus per-shard session
	// caches, and Open runs on the request path, so without a cap any
	// client that can invent tenant names can grow server memory without
	// bound. Preregistration via AddTenant is operator-driven and not
	// subject to the cap.
	MaxTenants int
	// Trace enables span collection for /debug/trace. Off by default:
	// spans accumulate until scraped, which an unscraped server should
	// not pay for.
	Trace bool
	// Open materializes the database for a tenant seen for the first
	// time. It is called at most once per tenant, under the server's
	// registry lock (keep it cheap). A nil Open rejects unknown
	// tenants; use AddTenant to preregister.
	Open func(tenant string) (*mcdb.DB, error)
}

// Default limits applied by New for zero Config fields.
const (
	DefaultMaxInFlight       = 32
	DefaultTenantMaxInFlight = 8
	DefaultMaxWorkers        = 8
	DefaultMaxIterations     = 100000
	DefaultResultCacheCap    = 256
	DefaultCacheMaxBytes     = 64 << 20
	DefaultPageSize          = 1000
	DefaultMaxTenants        = 64
)

// Server hosts per-tenant Monte Carlo query sessions behind an HTTP
// API. Create one with New; it is safe for concurrent use.
type Server struct {
	cfg   Config
	stats *parallel.Stats
	reg   *obs.Registry
	cache *lru.Cache[resultKey, cachedResult]
	// cacheMu serializes cache mutations with the byte accounting; the
	// inner lru lock alone cannot keep cacheBytes consistent with the
	// entries that are actually resident.
	cacheMu    sync.Mutex
	cacheBytes int64 // guarded by cacheMu

	// tracer, when non-nil, collects spans for /debug/trace. Scraping
	// swaps in a fresh tracer so span memory stays bounded.
	tracer atomic.Pointer[obs.Tracer]

	mu       sync.Mutex
	draining bool // guarded by mu
	inflight int  // guarded by mu
	// bounded by the Config.MaxTenants admission cap in tenantFor
	tenants map[string]*tenant // guarded by mu
	// tenantGen numbers the tenants built so far; see tenant.gen.
	tenantGen uint64 // guarded by mu
}

// tenant is one isolated namespace: its own database, one session per
// shard (each with its own bounded bundle cache, as a real backend
// shard would hold its own realizations), and an in-flight count. gen
// is unique per tenant value: AddTenant may put a different database
// under a name already served, and the result cache must not answer the
// new one with the old one's samples.
type tenant struct {
	gen      uint64
	db       *mcdb.DB
	shards   []*mcdb.Session
	inflight int // guarded by mu (the owning Server's)
}

// resultKey identifies one cacheable answer. Determinism makes the
// worker count and shard split irrelevant to the samples, so neither
// is part of the key. Everything that changes the payload IS part of
// it: the lineage flag (a lineage response carries per-iteration
// provenance a plain run does not — before the flag joined the key,
// the two collided and a cached plain run could answer a lineage
// request with no lineage) and the canonical what-if text (a delta run
// answers a hypothetical database, never the base one).
type resultKey struct {
	tenant  uint64 // tenant.gen, not the name: a replaced tenant's entries never match
	kind    string // "agg" or "sql"
	text    string // canonical query text
	seed    uint64
	iters   int
	lineage bool   // response carries per-iteration lineage
	whatif  string // canonical delta text, "" for the base database
}

// cachedResult is one resident cache entry: the full sample vector,
// the per-iteration lineage when the key's lineage flag is set, the
// summary of the vector (computed by the miss that stored it, so a hit
// never sorts) and the accounted payload size. Entries leave by
// capacity only: answers are deterministic, so none goes stale. From
// its first hit on, an entry also holds the JSON text
// of samples, comma-separated, with ends[i] the offset just past sample
// i's text: any page of a later hit is one sub-slice of text
// (retainText). All of it is immutable once stored; responses alias it.
type cachedResult struct {
	samples []float64
	lineage [][]int
	summary Summary
	text    []byte
	ends    []uint32
	bytes   int64
}

// New builds a Server from cfg, applying defaults for zero limits.
func New(cfg Config) *Server {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.TenantMaxInFlight <= 0 {
		cfg.TenantMaxInFlight = DefaultTenantMaxInFlight
	}
	if cfg.MaxWorkers <= 0 {
		cfg.MaxWorkers = DefaultMaxWorkers
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = DefaultMaxIterations
	}
	if cfg.ResultCacheCap <= 0 {
		cfg.ResultCacheCap = DefaultResultCacheCap
	}
	if cfg.CacheMaxBytes <= 0 {
		cfg.CacheMaxBytes = DefaultCacheMaxBytes
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = DefaultMaxTenants
	}
	stats := parallel.NewStats()
	s := &Server{
		cfg:     cfg,
		stats:   stats,
		reg:     stats.Registry(),
		cache:   lru.New[resultKey, cachedResult](cfg.ResultCacheCap),
		tenants: make(map[string]*tenant),
	}
	if cfg.Trace {
		s.tracer.Store(obs.NewTracer())
	}
	return s
}

// AddTenant preregisters a tenant with an already-built database,
// bypassing Config.Open. Registering a name twice replaces the earlier
// tenant.
func (s *Server) AddTenant(name string, db *mcdb.DB) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenants[name] = s.newTenantLocked(name, db)
	s.reg.Gauge(MetricTenants).Set(int64(len(s.tenants)))
}

// newTenantLocked builds the per-shard sessions and numbers the tenant.
// Caller holds s.mu.
func (s *Server) newTenantLocked(name string, db *mcdb.DB) *tenant {
	s.tenantGen++
	t := &tenant{gen: s.tenantGen, db: db, shards: make([]*mcdb.Session, s.cfg.Shards)}
	for i := range t.shards {
		t.shards[i] = db.NewSession()
	}
	return t
}

// tenantFor returns the named tenant, materializing it through
// Config.Open on first sight.
func (s *Server) tenantFor(name string) (*tenant, error) {
	if name == "" {
		return nil, badRequestf("tenant is required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t, nil
	}
	if s.cfg.Open == nil {
		return nil, &StatusError{Code: 404, Msg: fmt.Sprintf("unknown tenant %q", name)}
	}
	// Cap request-path materialization: tenants are never evicted, so
	// past this point every unknown name would be a permanent memory
	// grant to whoever sent it.
	if len(s.tenants) >= s.cfg.MaxTenants {
		return nil, &StatusError{Code: 429, Msg: fmt.Sprintf("tenant capacity (%d) reached", s.cfg.MaxTenants)}
	}
	db, err := s.cfg.Open(name)
	if err != nil {
		return nil, &StatusError{Code: 404, Msg: fmt.Sprintf("tenant %q: %v", name, err)}
	}
	t := s.newTenantLocked(name, db)
	s.tenants[name] = t
	s.reg.Gauge(MetricTenants).Set(int64(len(s.tenants)))
	return t, nil
}

// admit applies admission control for one query against the named
// tenant. On success it returns the tenant and a release func the
// caller must invoke exactly once when the query finishes.
func (s *Server) admit(name string) (*tenant, func(), error) {
	t, err := s.tenantFor(name)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.draining:
		s.reg.Counter(MetricRejectedDraining).Inc()
		return nil, nil, &StatusError{Code: 503, RetryAfter: 1, Msg: "server is draining"}
	case s.inflight >= s.cfg.MaxInFlight:
		s.reg.Counter(MetricRejectedBusy).Inc()
		return nil, nil, &StatusError{Code: 429, RetryAfter: 1, Msg: "server at capacity"}
	case t.inflight >= s.cfg.TenantMaxInFlight:
		s.reg.Counter(MetricRejectedTenant).Inc()
		return nil, nil, &StatusError{Code: 429, RetryAfter: 1,
			Msg: fmt.Sprintf("tenant %q at capacity", name)}
	}
	s.inflight++
	t.inflight++
	s.reg.Counter(MetricAdmitted).Inc()
	s.reg.Gauge(MetricInFlight).Set(int64(s.inflight))
	release := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.inflight--
		t.inflight--
		s.reg.Gauge(MetricInFlight).Set(int64(s.inflight))
	}
	return t, release, nil
}

// BeginDrain moves the server into drain mode: new queries are
// rejected with 503 while already-admitted ones run to completion. The
// process pairs this with http.Server.Shutdown, which waits for
// in-flight connections.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// EffectiveSeed returns the seed the server actually executes for a
// tenant's request seed: a namespace split of the server's base seed,
// so tenants with the same request seed draw independent samples. The
// mapping is pure — a client holding the response's effective_seed
// reproduces the exact samples offline with a plain mcdb.Session.
func (s *Server) EffectiveSeed(tenant string, seed uint64) uint64 {
	return rng.NamespaceSeed(s.cfg.BaseSeed, tenant, seed)
}

// Stats exposes the server-wide stats collector (and through its
// Registry, every metric the server and its sessions report).
func (s *Server) Stats() *parallel.Stats { return s.stats }

// StatusError is an error with an HTTP status. The handlers map any
// other error to 500.
type StatusError struct {
	Code int
	// RetryAfter, when positive, is sent as a Retry-After header
	// (seconds) — set on admission rejections so clients back off.
	RetryAfter int
	Msg        string
}

func (e *StatusError) Error() string { return e.Msg }

func badRequestf(format string, args ...any) error {
	return &StatusError{Code: 400, Msg: fmt.Sprintf(format, args...)}
}
