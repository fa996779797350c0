package server

import (
	"net/http"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/mcdb"
)

// starTenant is the benchmark's serve_sql fixture at test size: a
// stochastic sales table FOR EACH stores, amount uncertain, and two
// deterministic dimensions.
func starTenant(t *testing.T) *mcdb.DB {
	t.Helper()
	base := engine.NewDatabase()
	stores := engine.MustNewTable("stores", engine.Schema{
		{Name: "sid", Type: engine.TypeInt}, {Name: "region", Type: engine.TypeInt}, {Name: "base", Type: engine.TypeFloat},
	})
	for i := 0; i < 80; i++ {
		stores.MustInsert(engine.Int(int64(i)), engine.Int(int64(i%8)), engine.Float(45+float64(i%13)))
	}
	base.Put(stores)
	regions := engine.MustNewTable("regions", engine.Schema{{Name: "rid", Type: engine.TypeInt}, {Name: "zone", Type: engine.TypeString}})
	for i := 0; i < 8; i++ {
		regions.MustInsert(engine.Int(int64(i)), engine.Str([]string{"north", "south", "east", "west"}[i%4]))
	}
	base.Put(regions)
	db := mcdb.New(base)
	if err := db.AddSpec(&mcdb.TableSpec{Name: "sales", ForEach: "stores", UncertainCols: []int{1}, VG: mcdb.NormalVG(),
		Schema: engine.Schema{{Name: "sid", Type: engine.TypeInt}, {Name: "amount", Type: engine.TypeFloat}},
		Params: func(_ *engine.Database, outer engine.Row) (engine.Row, error) {
			return engine.Row{outer[2], engine.Float(5)}, nil
		},
		OutputRow: func(outer engine.Row, vg []engine.Value) engine.Row { return engine.Row{outer[0], vg[0]} }}); err != nil {
		t.Fatal(err)
	}
	return db
}

const starSQL = "SELECT SUM(sales.amount) FROM sales JOIN stores ON sales.sid = stores.sid " +
	"JOIN regions ON stores.region = regions.rid WHERE regions.zone = 'north' AND sales.amount > 52"

// TestSQLPlanOnceOnEveryShardWindow: the star statement runs plan-once
// in both shard windows of every request, never per instance, and the
// two counters that say so are on /metrics; a statement that reads no
// stochastic table is answered per instance.
func TestSQLPlanOnceOnEveryShardWindow(t *testing.T) {
	s, ts := newTestServer(t, Config{BaseSeed: 1, Shards: 2})
	s.AddTenant("star", starTenant(t))
	const requests = 3
	for seed := uint64(0); seed < requests; seed++ {
		resp, httpResp := post[SQLResponse](t, ts.URL+"/v1/sql", SQLRequest{Tenant: "star", SQL: starSQL, Iterations: 8, Seed: seed})
		if resp == nil || len(resp.Samples) != 8 {
			t.Fatalf("seed %d: status %d", seed, httpResp.StatusCode)
		}
	}
	if once, per := s.reg.Counter(mcdb.MetricSQLPlanOnce).Value(), s.reg.Counter(mcdb.MetricSQLPerInstance).Value(); once != 2*requests || per != 0 {
		t.Fatalf("%s = %d, %s = %d after %d requests on 2 shards; want %d and 0",
			mcdb.MetricSQLPlanOnce, once, mcdb.MetricSQLPerInstance, per, requests, 2*requests)
	}
	resp, _ := post[SQLResponse](t, ts.URL+"/v1/sql", SQLRequest{Tenant: "star", Iterations: 4, Seed: 1,
		SQL: "SELECT COUNT(*) FROM stores JOIN regions ON stores.region = regions.rid WHERE regions.zone = 'north'"})
	if resp == nil || resp.Samples[0] != 20 {
		t.Fatalf("deterministic statement: %+v", resp)
	}
	metrics := getBody(t, ts.URL+"/metrics")
	if !metricAtLeast(t, metrics, mcdb.MetricSQLPlanOnce, 2*requests) || !metricAtLeast(t, metrics, mcdb.MetricSQLPerInstance, 2) {
		t.Fatalf("/metrics lacks the executor counters:\n%s", metrics)
	}
}

// TestSQLJoinOperandOrderServed: ON may name the joined table's column
// first; /v1/sql answers both spellings with the same samples.
func TestSQLJoinOperandOrderServed(t *testing.T) {
	s, ts := newTestServer(t, Config{BaseSeed: 1})
	s.AddTenant("star", starTenant(t))
	req := SQLRequest{Tenant: "star", Iterations: 6, Seed: 4,
		SQL: "SELECT SUM(sales.amount) FROM sales JOIN stores ON sales.sid = stores.sid WHERE stores.region = 3"}
	want, httpResp := post[SQLResponse](t, ts.URL+"/v1/sql", req)
	if want == nil {
		t.Fatalf("%s: status %d", req.SQL, httpResp.StatusCode)
	}
	req.SQL = "SELECT SUM(sales.amount) FROM sales JOIN stores ON stores.sid = sales.sid WHERE stores.region = 3"
	got, httpResp := post[SQLResponse](t, ts.URL+"/v1/sql", req)
	if got == nil || httpResp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", req.SQL, httpResp.StatusCode)
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Fatalf("iteration %d: %v with the joined table first in ON, %v with it second", i, got.Samples[i], want.Samples[i])
		}
	}
}
