package server

// Result-cache tests: the byte budget, the text a first hit retains, a
// churn loop asserting after every step that the byte gauge stays
// within its budget and equals what is resident, and a replaced tenant
// never being answered from its predecessor's entries.

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"modeldata/internal/experiments"
	"modeldata/internal/rng"
)

func cacheServer(cfg Config) *Server {
	return New(cfg)
}

func storedVec(n int, fill float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = fill
	}
	return v
}

func key(i int) resultKey {
	return resultKey{tenant: 1, kind: "agg", text: fmt.Sprintf("q%d", i), seed: 1, iters: 1}
}

func TestCacheByteBudgetEvicts(t *testing.T) {
	// Budget fits exactly two 100-sample vectors (800 bytes each).
	s := cacheServer(Config{CacheMaxBytes: 1600})
	s.cacheStore(key(1), cachedResult{samples: storedVec(100, 1)})
	s.cacheStore(key(2), cachedResult{samples: storedVec(100, 2)})
	if got := s.reg.Gauge(MetricCacheBytes).Value(); got != 1600 {
		t.Fatalf("cache bytes = %d, want 1600", got)
	}
	// A third insert must evict the least-recently-used (key 1).
	s.cacheStore(key(3), cachedResult{samples: storedVec(100, 3)})
	if got := s.reg.Gauge(MetricCacheBytes).Value(); got != 1600 {
		t.Fatalf("cache bytes after eviction = %d, want 1600", got)
	}
	if _, ok := s.cacheGet(key(1)); ok {
		t.Fatal("key 1 should have been evicted by the byte budget")
	}
	for _, i := range []int{2, 3} {
		if _, ok := s.cacheGet(key(i)); !ok {
			t.Fatalf("key %d should be resident", i)
		}
	}
	if s.reg.Counter(MetricCacheEvictions).Value() == 0 {
		t.Fatal("eviction counter did not advance")
	}
}

func TestCacheOversizedEntryNotCached(t *testing.T) {
	s := cacheServer(Config{CacheMaxBytes: 800})
	s.cacheStore(key(1), cachedResult{samples: storedVec(50, 1)})  // 400 bytes: fits
	s.cacheStore(key(2), cachedResult{samples: storedVec(200, 2)}) // 1600 bytes: over the whole budget
	if _, ok := s.cacheGet(key(2)); ok {
		t.Fatal("an entry larger than the byte budget must not be cached")
	}
	if _, ok := s.cacheGet(key(1)); !ok {
		t.Fatal("storing an oversized entry must not disturb resident ones")
	}
	if got := s.reg.Gauge(MetricCacheBytes).Value(); got != 400 {
		t.Fatalf("cache bytes = %d, want 400", got)
	}
}

func TestCacheReplacementKeepsAccounting(t *testing.T) {
	s := cacheServer(Config{CacheMaxBytes: 4000})
	s.cacheStore(key(1), cachedResult{samples: storedVec(100, 1)}) // 800 bytes
	s.cacheStore(key(1), cachedResult{samples: storedVec(200, 2)}) // replaced: 1600 bytes
	if got := s.reg.Gauge(MetricCacheBytes).Value(); got != 1600 {
		t.Fatalf("cache bytes after replacement = %d, want 1600", got)
	}
	e, ok := s.cacheGet(key(1))
	if v := e.samples; !ok || len(v) != 200 || v[0] != 2 {
		t.Fatalf("replacement not visible: %v %d", ok, len(e.samples))
	}
}

// hit is what results does on a cache hit: look the key up and, on an
// entry's first hit, retain its text. It checks the text it is handed.
func hit(t *testing.T, s *Server, k resultKey) (cachedResult, bool) {
	t.Helper()
	e, ok := s.cacheGet(k)
	if !ok {
		return e, false
	}
	if e.text == nil {
		e = s.retainText(k, e)
	}
	if e.text != nil {
		want, err := json.Marshal(e.samples)
		if err != nil {
			t.Fatal(err)
		}
		if got := "[" + string(e.text) + "]"; got != string(want) || len(e.ends) != len(e.samples) {
			t.Fatalf("entry text %s with %d offsets, want %s", got, len(e.ends), want)
		}
	}
	return e, true
}

// checkAccounting asserts the byte gauge equals what is resident:
// Σ vector + lineage + retained text + offsets. It walks the cache
// oldest-first and re-adds in the same order, so recency is undisturbed.
func checkAccounting(t *testing.T, s *Server, step string) {
	t.Helper()
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	type kv struct {
		k resultKey
		v cachedResult
	}
	var resident []kv
	for {
		k, v, ok := s.cache.RemoveOldest()
		if !ok {
			break
		}
		resident = append(resident, kv{k, v})
	}
	var sum int64
	for _, e := range resident {
		want := int64(len(e.v.samples))*8 + int64(len(e.v.text)) + int64(len(e.v.ends))*4
		for _, l := range e.v.lineage {
			want += int64(len(l)) * 8
		}
		if e.v.bytes != want {
			t.Fatalf("%s: entry %s charged %d bytes, holds %d", step, e.k.text, e.v.bytes, want)
		}
		sum += want
		s.cache.Add(e.k, e.v)
	}
	if gauge := s.reg.Gauge(MetricCacheBytes).Value(); gauge != sum || s.cacheBytes != sum || sum > s.cfg.CacheMaxBytes {
		t.Fatalf("%s: gauge %d, cacheBytes %d, resident %d, budget %d", step, gauge, s.cacheBytes, sum, s.cfg.CacheMaxBytes)
	}
	if n := len(resident); n > s.cache.Cap() {
		t.Fatalf("%s: %d entries exceed the entry cap", step, n)
	}
}

// TestCacheTextAccounting: the text a first hit retains is charged to
// the byte budget like the vector it spells.
func TestCacheTextAccounting(t *testing.T) {
	// 100 samples of 1.5: 800 bytes of vector, 399 of text, 400 of offsets.
	const vec, grown = 800, 800 + 399 + 400

	// The least budget under which a 100-sample entry may take text: the
	// decision is made before encoding, at maxSampleText per sample.
	const admits = vec + (maxSampleText+4)*100

	t.Run("first hit grows the entry and evicts older ones", func(t *testing.T) {
		s := cacheServer(Config{CacheMaxBytes: admits}) // 3700: four bare vectors fit, a fifth's worth of text does not
		for i := 1; i <= 4; i++ {
			s.cacheStore(key(i), cachedResult{samples: storedVec(100, 1.5)})
		}
		checkAccounting(t, s, "four bare vectors")
		evictions := s.reg.Counter(MetricCacheEvictions).Value()
		if e, ok := hit(t, s, key(4)); !ok || e.text == nil || e.bytes != grown {
			t.Fatalf("first hit: ok=%v, %d bytes charged, want %d with text", ok, e.bytes, grown)
		}
		checkAccounting(t, s, "after the first hit")
		if _, ok := s.cacheGet(key(1)); ok {
			t.Fatal("the oldest entry should have been evicted to make room for the text")
		}
		for _, i := range []int{2, 3} {
			if _, ok := s.cacheGet(key(i)); !ok {
				t.Fatalf("key %d evicted: growth took more room than it needed", i)
			}
		}
		if got := s.reg.Counter(MetricCacheEvictions).Value(); got != evictions+1 {
			t.Fatalf("evictions %d, want %d", got, evictions+1)
		}
		if e, ok := hit(t, s, key(4)); !ok || e.bytes != grown || s.cacheBytes != 2*vec+grown {
			t.Fatalf("second hit: ok=%v, entry %d, cache %d bytes", ok, e.bytes, s.cacheBytes)
		}
	})

	t.Run("text that cannot fit is not retained", func(t *testing.T) {
		s := cacheServer(Config{CacheMaxBytes: admits - 1})
		s.cacheStore(key(1), cachedResult{samples: storedVec(100, 1.5)})
		for i := 0; i < 2; i++ {
			e, ok := hit(t, s, key(1))
			if !ok || e.text != nil || len(e.samples) != 100 {
				t.Fatalf("hit %d: ok=%v text=%q", i, ok, e.text)
			}
			checkAccounting(t, s, "oversized text")
		}
		if got := s.reg.Gauge(MetricCacheBytes).Value(); got != vec {
			t.Fatalf("gauge %d, want the bare vector's %d", got, vec)
		}
	})

	t.Run("replacement retires the text", func(t *testing.T) {
		s := cacheServer(Config{})
		s.cacheStore(key(1), cachedResult{samples: storedVec(100, 1.5)})
		stale, _ := s.cacheGet(key(1))
		hit(t, s, key(1))
		s.cacheStore(key(1), cachedResult{samples: storedVec(50, 2.5)})
		checkAccounting(t, s, "after replacement")
		if got := s.reg.Gauge(MetricCacheBytes).Value(); got != 400 {
			t.Fatalf("gauge %d after replacement, want 400", got)
		}
		// A first hit that raced the replacement holds the old vector:
		// its text must not land on the new entry.
		s.retainText(key(1), stale)
		if e, _ := s.cacheGet(key(1)); e.text != nil {
			t.Fatalf("text of the replaced vector attached to its replacement: %s", e.text)
		}
		if e, ok := hit(t, s, key(1)); !ok || string(e.text[:7]) != "2.5,2.5" {
			t.Fatalf("replacement's own text: ok=%v %q", ok, e.text)
		}
		checkAccounting(t, s, "replacement hit")
	})
}

func TestCacheChurnHoldsBudgets(t *testing.T) {
	const budget = 10_000
	s := cacheServer(Config{ResultCacheCap: 16, CacheMaxBytes: budget})
	r := rng.New(523)
	texts := 0
	for i := 0; i < 2000; i++ {
		switch r.Intn(3) {
		case 0:
			// Up to 2400 bytes of vector: some cannot take their text
			// even alone, most can only by evicting others.
			e := cachedResult{samples: storedVec(r.Intn(300), float64(i)+0.25)}
			if r.Intn(4) == 0 {
				e.lineage = [][]int{make([]int, r.Intn(20)), nil}
			}
			s.cacheStore(key(r.Intn(40)), e)
		case 1, 2:
			if e, ok := hit(t, s, key(r.Intn(40))); ok && e.text != nil {
				texts++
			}
		}
		checkAccounting(t, s, fmt.Sprintf("step %d", i))
	}
	if texts == 0 {
		t.Fatal("no hit ever retained text: the churn does not exercise first-hit growth")
	}
	// Drain everything and confirm the accounting returns to zero.
	s.cacheMu.Lock()
	for {
		_, old, ok := s.cache.RemoveOldest()
		if !ok {
			break
		}
		s.cacheBytes -= old.bytes
	}
	if s.cacheBytes != 0 {
		s.cacheMu.Unlock()
		t.Fatalf("after draining, residual byte accounting %d", s.cacheBytes)
	}
	s.cacheMu.Unlock()
}

// TestReplacedTenantMissesCache: AddTenant documents that registering a
// name twice replaces the earlier tenant, so the same request must then
// be computed over the new database, not answered with the samples the
// old one left in the cache.
func TestReplacedTenantMissesCache(t *testing.T) {
	ctx := context.Background()
	ask := map[string]func(s *Server) (*QueryResponse, error){
		"query": func(s *Server) (*QueryResponse, error) {
			return s.Query(ctx, QueryRequest{Tenant: "t", Table: "sbp_data", Col: "sbp", Fn: "sum", Iterations: 10, Seed: 3})
		},
		"sql": func(s *Server) (*QueryResponse, error) {
			r, err := s.SQL(ctx, SQLRequest{Tenant: "t", SQL: "SELECT SUM(sbp) FROM sbp_data", Iterations: 10, Seed: 3})
			if err != nil {
				return nil, err
			}
			return &r.QueryResponse, nil
		},
	}
	for name, ask := range ask {
		t.Run(name, func(t *testing.T) {
			serve := func(s *Server, patients int) *QueryResponse {
				t.Helper()
				db, err := experiments.SBPDatabase(patients)
				if err != nil {
					t.Fatal(err)
				}
				s.AddTenant("t", db)
				resp, err := ask(s)
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			want := serve(New(Config{BaseSeed: 1}), 80)

			s := New(Config{BaseSeed: 1})
			small := serve(s, 20)
			got := serve(s, 80)
			if got.Cached || !reflect.DeepEqual(got.Samples, want.Samples) {
				t.Fatalf("after replacement: cached=%v mean %v; the new database's mean is %v (the replaced one's was %v)",
					got.Cached, got.Summary.Mean, want.Summary.Mean, small.Summary.Mean)
			}
			if again, err := ask(s); err != nil || !again.Cached || !reflect.DeepEqual(again.Samples, want.Samples) {
				t.Fatalf("the replacement's own answer should be cached: %v, %+v", err, again)
			}
		})
	}
}
