package server

// Lineage and what-if tests for the query surface, anchored by the
// result-cache key regression: before the lineage flag (and the
// what-if transform) joined resultKey, a plain run and a lineage run
// of the same query collided, so a cached plain answer could satisfy
// a lineage request with no lineage at all — and a what-if answer
// could shadow the base query's. These tests pin both separations and
// the end-to-end semantics of each feature.

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
	"modeldata/internal/rng"
)

// TestLineageCacheKeySeparation is the collision regression, both
// directions: a plain run must not serve a later lineage request from
// the cache, and a lineage run must not mark a later plain request as
// cached-with-lineage. Identical requests on each side still hit.
func TestLineageCacheKeySeparation(t *testing.T) {
	_, ts := newTestServer(t, Config{BaseSeed: 3})
	plain := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "count",
		Iterations: 12, Seed: 5}
	lineage := plain
	lineage.Lineage = true

	p1, _ := post[QueryResponse](t, ts.URL+"/v1/query", plain)
	if p1 == nil || p1.Cached {
		t.Fatal("first plain run should compute")
	}
	l1, _ := post[QueryResponse](t, ts.URL+"/v1/query", lineage)
	if l1 == nil {
		t.Fatal("lineage query failed")
	}
	if l1.Cached {
		t.Fatal("lineage request hit the plain run's cache entry (key collision)")
	}
	if len(l1.Lineage) != len(l1.Samples) {
		t.Fatalf("lineage rows %d != samples %d", len(l1.Lineage), len(l1.Samples))
	}
	// Identical lineage request: a genuine hit, payload intact.
	l2, _ := post[QueryResponse](t, ts.URL+"/v1/query", lineage)
	if l2 == nil || !l2.Cached {
		t.Fatal("repeated lineage request should hit its own entry")
	}
	if len(l2.Lineage) != len(l1.Lineage) {
		t.Fatalf("cached lineage lost: %d rows, want %d", len(l2.Lineage), len(l1.Lineage))
	}
	// The other direction: the plain request hits its own (plain) entry
	// and never grows a lineage payload.
	p2, _ := post[QueryResponse](t, ts.URL+"/v1/query", plain)
	if p2 == nil || !p2.Cached {
		t.Fatal("repeated plain request should hit")
	}
	if p2.Lineage != nil {
		t.Fatal("plain response carries lineage")
	}
	// Samples are identical across all four — the key split changes
	// caching, never values.
	for i := range p1.Samples {
		if p1.Samples[i] != l1.Samples[i] {
			t.Fatalf("iter %d: lineage run changed samples", i)
		}
	}
}

// TestLineageCountsContributors: for COUNT with a deterministic
// predicate, each sample literally counts its contributing tuples, so
// the lineage row length must equal the sample value, and every tuple
// index must denote a male patient (even pid in the fixture).
func TestLineageCountsContributors(t *testing.T) {
	_, ts := newTestServer(t, Config{BaseSeed: 11})
	male := "M"
	req := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "count",
		Where:      []Predicate{{Col: "gender", Op: "eq", Str: &male}, {Col: "sbp", Op: "gt", Value: 120}},
		Iterations: 20, Seed: 2, Lineage: true}
	resp, _ := post[QueryResponse](t, ts.URL+"/v1/query", req)
	if resp == nil {
		t.Fatal("query failed")
	}
	if len(resp.Lineage) != len(resp.Samples) {
		t.Fatalf("lineage rows %d != samples %d", len(resp.Lineage), len(resp.Samples))
	}
	for i, s := range resp.Samples {
		if float64(len(resp.Lineage[i])) != s {
			t.Fatalf("iter %d: %d lineage tuples, sample %v", i, len(resp.Lineage[i]), s)
		}
		for _, row := range resp.Lineage[i] {
			if row%2 != 0 {
				t.Fatalf("iter %d: tuple %d is not a male patient", i, row)
			}
		}
	}

	// A predicate that selects nothing: every iteration's lineage is
	// an empty list on the wire, never null.
	req.Where = []Predicate{{Col: "sbp", Op: "gt", Value: 1e9}}
	raw, _ := post[json.RawMessage](t, ts.URL+"/v1/query", req)
	if raw == nil {
		t.Fatal("empty-selection query failed")
	}
	if want := `"lineage":[` + strings.Repeat("[],", req.Iterations-1) + `[]]`; !strings.Contains(string(*raw), want) {
		t.Fatalf("body %s; want it to carry %s", *raw, want)
	}
}

// TestLineagePagesWithSamples: the lineage payload pages in lockstep
// with the sample vector.
func TestLineagePagesWithSamples(t *testing.T) {
	_, ts := newTestServer(t, Config{BaseSeed: 7})
	req := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "count",
		Iterations: 25, Seed: 1, Lineage: true}
	whole, _ := post[QueryResponse](t, ts.URL+"/v1/query", req)
	if whole == nil {
		t.Fatal("query failed")
	}
	paged := req
	paged.Offset, paged.Limit = 10, 10
	page, _ := post[QueryResponse](t, ts.URL+"/v1/query", paged)
	if page == nil {
		t.Fatal("page failed")
	}
	if len(page.Lineage) != len(page.Samples) {
		t.Fatalf("page lineage %d != page samples %d", len(page.Lineage), len(page.Samples))
	}
	for i := range page.Lineage {
		want, got := whole.Lineage[10+i], page.Lineage[i]
		if len(want) != len(got) {
			t.Fatalf("page iter %d: %d tuples, want %d", i, len(got), len(want))
		}
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("page iter %d tuple %d: %d, want %d", i, j, got[j], want[j])
			}
		}
	}
}

// TestWhatIfMatchesDirectDelta: a served what-if answer is
// bit-identical to a direct ExecDelta with the namespaced seed,
// shards or not.
func TestWhatIfMatchesDirectDelta(t *testing.T) {
	const baseSeed = 19
	for _, shards := range []int{1, 3} {
		_, ts := newTestServer(t, Config{BaseSeed: baseSeed, Shards: shards})
		male := "M"
		req := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg",
			Iterations: 30, Seed: 4, Workers: 4,
			WhatIf: &WhatIf{Col: "sbp", Scale: 1.1, Shift: -2,
				Where: []Predicate{{Col: "gender", Op: "eq", Str: &male}}}}
		resp, _ := post[QueryResponse](t, ts.URL+"/v1/query", req)
		if resp == nil {
			t.Fatalf("shards=%d: what-if query failed", shards)
		}
		db := sbpDB(t)
		want, err := db.NewSession().ExecDelta(context.Background(),
			mcdb.AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg},
			mcdb.ExecOptions{Iterations: 30, Seed: rng.NamespaceSeed(baseSeed, "acme", 4)},
			mcdb.Delta{Table: "sbp_data",
				Where:  func(det engine.Row) bool { return det[1].Equal(engine.Str("M")) },
				MapUnc: func(det engine.Row, unc []float64) { unc[0] = unc[0]*1.1 - 2 }})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if resp.Samples[i] != want[i] {
				t.Fatalf("shards=%d iter %d: server %v != direct %v", shards, i, resp.Samples[i], want[i])
			}
		}
	}
}

func sbpDB(t *testing.T) *mcdb.DB {
	t.Helper()
	db, err := experiments.SBPDatabase(fixturePatients)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestWhatIfCacheKeySeparation: the base query, a what-if, and a
// different what-if all occupy distinct cache entries; repeating any
// of them hits its own.
func TestWhatIfCacheKeySeparation(t *testing.T) {
	_, ts := newTestServer(t, Config{BaseSeed: 23})
	base := QueryRequest{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg",
		Iterations: 15, Seed: 6}
	scaled := base
	scaled.WhatIf = &WhatIf{Col: "sbp", Scale: 1.5}
	shifted := base
	shifted.WhatIf = &WhatIf{Col: "sbp", Shift: 10}

	b1, _ := post[QueryResponse](t, ts.URL+"/v1/query", base)
	w1, _ := post[QueryResponse](t, ts.URL+"/v1/query", scaled)
	w2, _ := post[QueryResponse](t, ts.URL+"/v1/query", shifted)
	if b1 == nil || w1 == nil || w2 == nil {
		t.Fatal("query failed")
	}
	if w1.Cached || w2.Cached {
		t.Fatal("a what-if request hit another request's cache entry (key collision)")
	}
	if b1.Samples[0] == w1.Samples[0] || w1.Samples[0] == w2.Samples[0] {
		t.Fatal("distinct transforms returned identical first samples")
	}
	for _, req := range []QueryRequest{base, scaled, shifted} {
		again, _ := post[QueryResponse](t, ts.URL+"/v1/query", req)
		if again == nil || !again.Cached {
			t.Fatal("repeated request should hit its own entry")
		}
	}
}

// TestLineageWhatIfValidation: the combinations the surface rejects.
func TestLineageWhatIfValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{BaseSeed: 1})
	// Tenant "flat" serves the fixture with UncertainCols cleared: it
	// answers per instance, and has no bundles to take lineage or a
	// what-if from.
	db, err := experiments.SBPDatabase(fixturePatients)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := db.Spec("sbp_data")
	if err != nil {
		t.Fatal(err)
	}
	flatSpec := *spec
	flatSpec.UncertainCols = nil
	flat := mcdb.New(db.Base)
	if err := flat.AddSpec(&flatSpec); err != nil {
		t.Fatal(err)
	}
	s.AddTenant("flat", flat)
	plain := QueryRequest{Tenant: "flat", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5, Seed: 2}
	resp, _ := post[QueryResponse](t, ts.URL+"/v1/query", plain)
	if resp == nil {
		t.Fatal("plain query on the flat tenant failed")
	}
	want, err := flat.NewSession().Exec(context.Background(),
		mcdb.AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg},
		mcdb.ExecOptions{Iterations: 5, Seed: resp.EffectiveSeed})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if resp.Samples[i] != want[i] {
			t.Fatalf("flat tenant iter %d: server %v, direct session %v", i, resp.Samples[i], want[i])
		}
	}

	cases := []QueryRequest{
		// lineage + whatif
		{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5,
			Lineage: true, WhatIf: &WhatIf{Col: "sbp", Shift: 1}},
		// lineage on a table with no uncertain columns (tenant "flat")
		{Tenant: "flat", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5, Lineage: true},
		// whatif on the same
		{Tenant: "flat", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5,
			WhatIf: &WhatIf{Col: "sbp", Shift: 1}},
		// whatif on a deterministic column
		{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5,
			WhatIf: &WhatIf{Col: "gender", Shift: 1}},
		// whatif on an unknown table
		{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5,
			WhatIf: &WhatIf{Table: "nope", Col: "sbp", Shift: 1}},
		// whatif predicate on an uncertain column
		{Tenant: "acme", Table: "sbp_data", Col: "sbp", Fn: "avg", Iterations: 5,
			WhatIf: &WhatIf{Col: "sbp", Shift: 1,
				Where: []Predicate{{Col: "sbp", Op: "gt", Value: 100}}}},
	}
	for i, req := range cases {
		resp, httpResp := post[QueryResponse](t, ts.URL+"/v1/query", req)
		if resp != nil || httpResp.StatusCode != 400 {
			t.Fatalf("case %d: status %d, want 400", i, httpResp.StatusCode)
		}
	}
}
