package main

// Request generation. Everything a workload sends is derived from -seed
// through internal/rng before the server sees a byte, so the same seed
// gives the same schedule (arrival offsets, tenants, kinds, bodies) and
// the server receives only the generated requests.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"modeldata/internal/rng"
	"modeldata/internal/server"
)

// Op kinds. hot is a result-cache hit by construction (its key was
// requested in set-up); the others miss the result cache and differ in
// what they make mcdb do.
const (
	kindHot      = "hot"      // result-cache hit
	kindEstimate = "estimate" // result miss, bundle hit: FilterDet + Estimate
	kindWhatIf   = "whatif"   // result miss, bundle hit: ExecDeltaRange
	kindRealize  = "realize"  // result miss, bundle miss: InstantiateBundledCtx
	kindSQL      = "sql"      // per-iteration Instantiate + engine SQL
)

// aggSpec is the structured form of one /v1/query request:
//
//	SELECT fn(sbp) FROM sbp_data [WHERE gender = g] [AND sbp > thr]
//
// optionally against the what-if world "sbp += shift for gender 'M'".
// The JSON body and the oracle's mcdb.AggQuery are both derived from it.
type aggSpec struct {
	fn     string
	gender string // "" for no deterministic predicate
	thr    float64
	hasThr bool
	whatif bool
	shift  float64
}

// op is one generated request.
type op struct {
	kind   string
	tenant string
	seed   uint64
	iters  int
	agg    *aggSpec // /v1/query
	sql    string   // /v1/sql when agg is nil
	path   string
	body   []byte
	// The request body before encoding, for sending it as a method call.
	aggReq server.QueryRequest
	sqlReq server.SQLRequest
}

// schedule is one workload's generated traffic: warm is sent once during
// set-up, and the measured phase sends pool[order[i]] for i = 0, 1, …
// until the op cap or the deadline. unit is the number of consecutive
// ops that are only ever sent together (a serve_explore session).
type schedule struct {
	warm  []*op
	pool  []*op
	order []int32
	unit  int
	// Open loop only: due[i] is the arrival offset of order[i] and
	// step[i] its rate step.
	due   []time.Duration
	step  []uint8
	rates [3]float64
}

func newAgg(tenant, kind string, seed uint64, iters int, a aggSpec) *op {
	req := server.QueryRequest{Tenant: tenant, Table: sbpTable, Col: sbpCol, Fn: a.fn,
		Iterations: iters, Seed: seed}
	if a.gender != "" {
		g := a.gender
		req.Where = append(req.Where, server.Predicate{Col: "gender", Op: "eq", Str: &g})
	}
	if a.hasThr {
		req.Where = append(req.Where, server.Predicate{Col: sbpCol, Op: "gt", Value: a.thr})
	}
	if a.whatif {
		m := "M"
		req.WhatIf = &server.WhatIf{Col: sbpCol, Shift: a.shift,
			Where: []server.Predicate{{Col: "gender", Op: "eq", Str: &m}}}
	}
	return &op{kind: kind, tenant: tenant, seed: seed, iters: iters, agg: &a,
		path: "/v1/query", body: mustJSON(req), aggReq: req}
}

func newSQL(tenant, kind, sql string, seed uint64, iters int) *op {
	req := server.SQLRequest{Tenant: tenant, SQL: sql, Iterations: iters, Seed: seed}
	return &op{kind: kind, tenant: tenant, seed: seed, iters: iters, sql: sql,
		path: "/v1/sql", body: mustJSON(req), sqlReq: req}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding a generated request: %v", err)) // only a bug in this file can cause it
	}
	return b
}

var aggFns = []string{"avg", "sum", "count"}
var genders = []string{"", "M", "F"}

// freshThr draws an uncertain-column threshold inside the bulk of the
// sbp distribution (Normal(120, 15)), so the predicate is selective in
// both directions and never constant across iterations.
func freshThr(r *rng.Stream) float64 { return 100 + 40*r.Float64() }

// distinctAggs returns n distinct read-only aggregates: every (fn,
// gender) combination over a grid of thresholds.
func distinctAggs(n int) []aggSpec {
	out := make([]aggSpec, 0, n)
	for i := 0; len(out) < n; i++ {
		a := aggSpec{fn: aggFns[i%3], gender: genders[(i/3)%3]}
		if g := i / 9; g > 0 {
			a.hasThr, a.thr = true, 100+float64(g)
		}
		out = append(out, a)
	}
	return out
}

// genCached: one tenant, one (seed, iters) realization, a pool of
// distinct aggregates all requested in set-up, then drawn uniformly.
func genCached(seed uint64, sz sizes) *schedule {
	r := rng.New(seed)
	s := r.Uint64()
	p := &schedule{unit: 1}
	for _, a := range distinctAggs(sz.cachedPool) {
		p.pool = append(p.pool, newAgg("t0", kindHot, s, sz.iters, a))
	}
	p.warm = p.pool
	p.order = make([]int32, sz.cachedOps)
	for i := range p.order {
		p.order[i] = int32(r.Intn(len(p.pool)))
	}
	return p
}

// sessionOps is the shape of one serve_explore session.
const (
	sessionEstimates = 10
	sessionWhatIfs   = 2
	sessionOps       = 1 + sessionEstimates + sessionWhatIfs
)

// genExplore: each session picks a fresh realization seed, asks one
// question of it (realize), ten more with fresh thresholds (estimate),
// then two what-ifs with fresh shifts. The first what-if's question
// reads only gender 'F' tuples, which the shift on 'M' cannot touch
// (every iteration is skipped); the second reads all tuples (every
// iteration is dirty).
func genExplore(seed uint64, sz sizes) *schedule {
	r := rng.New(seed)
	p := &schedule{unit: sessionOps}
	p.warm = []*op{newAgg("t0", kindRealize, r.Uint64(), sz.iters, aggSpec{fn: "avg"})}
	for s := 0; s < sz.exploreSessions; s++ {
		ss := r.Uint64()
		p.pool = append(p.pool, newAgg("t0", kindRealize, ss, sz.iters, aggSpec{fn: "avg"}))
		for i := 0; i < sessionEstimates; i++ {
			a := aggSpec{fn: aggFns[i%3], gender: genders[(i/3)%3], hasThr: true, thr: freshThr(r)}
			p.pool = append(p.pool, newAgg("t0", kindEstimate, ss, sz.iters, a))
		}
		for i := 0; i < sessionWhatIfs; i++ {
			a := aggSpec{fn: "avg", whatif: true, shift: 1 + 9*r.Float64()}
			if i == 0 {
				a.gender = "F"
			}
			p.pool = append(p.pool, newAgg("t0", kindWhatIf, ss, sz.iters, a))
		}
	}
	p.order = identity(len(p.pool))
	return p
}

// genSQL: the star join, a fresh seed per request.
func genSQL(seed uint64, sz sizes) *schedule {
	r := rng.New(seed)
	p := &schedule{unit: 1}
	p.warm = []*op{newSQL("t0", kindSQL, starSQL, r.Uint64(), sz.sqlIters)}
	for i := 0; i < sz.sqlOps; i++ {
		p.pool = append(p.pool, newSQL("t0", kindSQL, starSQL, r.Uint64(), sz.sqlIters))
	}
	p.order = identity(len(p.pool))
	return p
}

func identity(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// Open-loop mix. Kinds and tenants are stratified: every block of 100
// consecutive arrivals holds exactly the kind counts below and every
// block of 8 the tenant counts, in an order shuffled by the seed. The
// mix a run sees is then the designed one, not a draw around it, which
// keeps run-to-run spread for the schedule's timing, not its make-up.
var (
	openTenants     = []string{"t0", "t1", "t2", "t3"}
	openTenantCount = []int{4, 2, 1, 1}
	openKinds       = []string{kindHot, kindEstimate, kindWhatIf, kindSQL, kindRealize}
	openKindCount   = []int{85, 10, 2, 2, 1}
	// openStepShare splits the schedule length across the three rates.
	openStepShare = [3]float64{0.15, 0.7, 0.15}
)

// openGateStep is the rate step whose latency is an end-to-end metric.
const openGateStep = 1

// openSQLIters is the iteration count of the smoke join in the open mix.
const openSQLIters = 5

// strata returns a generator of indexes 0..len(counts)-1 that emits
// each index exactly counts[i] times per block, shuffled per block.
func strata(r *rng.Stream, counts []int) func() int {
	var block []int
	for i, c := range counts {
		for ; c > 0; c-- {
			block = append(block, i)
		}
	}
	at := len(block)
	return func() int {
		if at == len(block) {
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			at = 0
		}
		at++
		return block[at-1]
	}
}

// genOpen: a Poisson process per rate step, conditioned on its expected
// count (rate × length arrivals at sorted uniform offsets), four
// tenants, five kinds. hot follows Zipf(1) over each tenant's key list on
// the tenant's resident realization; estimate and whatif hit that same
// realization with fresh parameters; realize takes the next of openSeeds
// other seeds per tenant (more than a session's bundle LRU holds); sql
// is the CI smoke join on a fresh seed. Set-up requests the openWarm
// most popular keys of every tenant, most popular first.
func genOpen(seed uint64, sz sizes, seconds float64) *schedule {
	r := rng.New(seed)
	p := &schedule{unit: 1, rates: sz.openRates}
	hotSeed := make([]uint64, len(openTenants))
	seeds := make([][]uint64, len(openTenants))
	hotBase := make([]int, len(openTenants))
	aggs := distinctAggs(sz.openHotKeys)
	// Zipf(1) as counts per block of hotBlock draws, so the key mix —
	// and with it the share of requests that miss the result cache — is
	// the designed one in every run.
	const hotBlock = 1000
	harmonic := 0.0
	for k := 0; k < sz.openHotKeys; k++ {
		harmonic += 1 / float64(k+1)
	}
	zipf := make([]int, sz.openHotKeys)
	for k := range zipf {
		zipf[k] = int(hotBlock/(float64(k+1)*harmonic) + 0.5)
	}
	nextHot := make([]func() int, len(openTenants))
	for t, name := range openTenants {
		nextHot[t] = strata(r, zipf)
		hotSeed[t] = r.Uint64()
		for i := 0; i < sz.openSeeds; i++ {
			seeds[t] = append(seeds[t], r.Uint64())
		}
		hotBase[t] = len(p.pool)
		for _, a := range aggs {
			p.pool = append(p.pool, newAgg(name, kindHot, hotSeed[t], sz.openIters, a))
		}
	}
	for k := 0; k < sz.openWarm; k++ {
		for t := range openTenants {
			p.warm = append(p.warm, p.pool[hotBase[t]+k])
		}
	}
	nextTenant, nextKind := strata(r, openTenantCount), strata(r, openKindCount)
	whatifs, realizes := 0, make([]int, len(openTenants))
	stepStart := 0.0
	for s, rate := range sz.openRates {
		length := seconds * openStepShare[s]
		offsets := make([]float64, int(rate*length+0.5))
		for i := range offsets {
			offsets[i] = stepStart + length*r.Float64()
		}
		sort.Float64s(offsets)
		for _, at := range offsets {
			t := nextTenant()
			name := openTenants[t]
			var o *op
			switch kind := openKinds[nextKind()]; kind {
			case kindHot:
				p.order = append(p.order, int32(hotBase[t]+nextHot[t]()))
			case kindEstimate:
				o = newAgg(name, kind, hotSeed[t], sz.openIters, aggSpec{fn: "avg", hasThr: true, thr: freshThr(r)})
			case kindWhatIf:
				// Alternately a question the shift cannot touch (all
				// iterations skipped) and one it must (all dirty).
				a := aggSpec{fn: "avg", whatif: true, shift: 1 + 9*r.Float64()}
				if whatifs++; whatifs%2 == 1 {
					a.gender = "F"
				}
				o = newAgg(name, kind, hotSeed[t], sz.openIters, a)
			case kindRealize:
				// In turn, not at random: how many realizations a run
				// pays for is then fixed, and its allocation with it.
				o = newAgg(name, kind, seeds[t][realizes[t]%len(seeds[t])], sz.openIters,
					aggSpec{fn: "avg", hasThr: true, thr: freshThr(r)})
				realizes[t]++
			case kindSQL:
				o = newSQL(name, kind, smokeJoinSQL, r.Uint64(), openSQLIters)
			}
			if o != nil {
				p.order = append(p.order, int32(len(p.pool)))
				p.pool = append(p.pool, o)
			}
			p.due = append(p.due, time.Duration(at*float64(time.Second)))
			p.step = append(p.step, uint8(s))
		}
		stepStart += length
	}
	return p
}

// hash digests the schedule the server will see: for every measured
// position its arrival offset, rate step, tenant, kind, path and body.
func (p *schedule) hash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, o := range p.warm {
		h.Write(o.body)
	}
	for i, idx := range p.order {
		o := p.pool[idx]
		if p.due != nil {
			put(uint64(p.due[i]))
			put(uint64(p.step[i]))
		}
		put(uint64(len(o.body)))
		h.Write([]byte(o.tenant))
		h.Write([]byte(o.kind))
		h.Write([]byte(o.path))
		h.Write(o.body)
	}
	return h.Sum64()
}
