package main

// The correctness oracle. Every distinct served request is recomputed
// by a direct, unsharded mcdb.Session run under the server's effective
// seed and compared sample by sample on math.Float64bits; a repeat of a
// verified key is compared byte for byte with its verified body. A
// wrong answer is a failed op. Verification runs after the phase it
// checks, never inside a timed region.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"

	"modeldata/internal/engine"
	"modeldata/internal/mcdb"
	"modeldata/internal/server"
)

type oracle struct {
	srv  *server.Server
	sess map[string]*mcdb.Session
	// hot memoizes the expected samples of hot keys, which recur;
	// bounded by the plan's hot pool.
	hot map[*op][]float64
}

func newOracle(sv *serving) *oracle {
	o := &oracle{srv: sv.srv, sess: map[string]*mcdb.Session{}, hot: map[*op][]float64{}}
	for name, db := range sv.dbs {
		// Two realizations: verification is grouped by seed, so one is
		// in use and one is the previous group's.
		o.sess[name] = db.NewSessionCache(2)
	}
	return o
}

// sbp_data column positions.
const (
	sbpGenderIdx = 1
	sbpUncPos    = 0
)

// aggQuery lowers an aggSpec onto mcdb's two predicate slots. With
// asServer the uncertain predicate compares through engine.Value's
// order, as the server's compileWhere does: the traced pass times that
// closure as the server's own work. The oracle takes the plain float
// comparison — the same answer by an independent, cheaper route.
func aggQuery(a *aggSpec, asServer bool) (mcdb.AggQuery, error) {
	q := mcdb.AggQuery{Table: sbpTable, Col: sbpCol}
	switch a.fn {
	case "avg":
		q.Fn = engine.AggAvg
	case "sum":
		q.Fn = engine.AggSum
	case "count":
		q.Fn = engine.AggCount
	default:
		return q, fmt.Errorf("oracle: aggregate %q", a.fn)
	}
	if a.gender != "" {
		g := engine.Str(a.gender)
		q.WhereDet = func(det engine.Row) bool { return det[sbpGenderIdx].Equal(g) }
	}
	switch {
	case a.hasThr && asServer:
		thr := engine.Float(a.thr)
		q.WhereUnc = func(_ engine.Row, unc []float64) bool { return thr.Less(engine.Float(unc[sbpUncPos])) }
	case a.hasThr:
		thr := a.thr
		q.WhereUnc = func(_ engine.Row, unc []float64) bool { return unc[sbpUncPos] > thr }
	}
	return q, nil
}

// whatIfDelta is the server's compileWhatIf for "sbp += shift where
// gender = 'M'", with the same arithmetic expression.
func whatIfDelta(shift float64) mcdb.Delta {
	m := engine.Str("M")
	scale := 1.0
	return mcdb.Delta{
		Table:  sbpTable,
		Where:  func(det engine.Row) bool { return det[sbpGenderIdx].Equal(m) },
		MapUnc: func(_ engine.Row, unc []float64) { unc[sbpUncPos] = unc[sbpUncPos]*scale + shift },
	}
}

// expect recomputes the full sample vector of one request.
func (o *oracle) expect(ctx context.Context, q *op) ([]float64, error) {
	sess, ok := o.sess[q.tenant]
	if !ok {
		return nil, fmt.Errorf("oracle: tenant %q", q.tenant)
	}
	opts := mcdb.ExecOptions{Iterations: q.iters, Seed: o.srv.EffectiveSeed(q.tenant, q.seed), Workers: clients}
	if q.agg == nil {
		return sess.ExecSQL(ctx, q.sql, opts)
	}
	aq, err := aggQuery(q.agg, false)
	if err != nil {
		return nil, err
	}
	if q.agg.whatif {
		return sess.ExecDelta(ctx, aq, opts, whatIfDelta(q.agg.shift))
	}
	return sess.Exec(ctx, aq, opts)
}

// check verifies one response body against the oracle.
func (o *oracle) check(ctx context.Context, q *op, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %s", status, truncate(body, 120))
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if want := o.srv.EffectiveSeed(q.tenant, q.seed); resp.EffectiveSeed != want {
		return fmt.Errorf("effective_seed %d, want %d", resp.EffectiveSeed, want)
	}
	want, ok := o.hot[q]
	if !ok {
		var err error
		if want, err = o.expect(ctx, q); err != nil {
			return fmt.Errorf("oracle run: %w", err)
		}
		if q.kind == kindHot {
			o.hot[q] = want
		}
	}
	if resp.Iterations != len(want) || len(resp.Samples) != len(want) {
		return fmt.Errorf("%d samples for %d iterations, want %d", len(resp.Samples), resp.Iterations, len(want))
	}
	for i := range want {
		if math.Float64bits(resp.Samples[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("sample %d = %v, oracle %v", i, resp.Samples[i], want[i])
		}
	}
	return nil
}

// verify checks every unmatched sample of a phase, marks the failed ones
// bad, and returns their number with the first few reasons. Samples are
// visited grouped by (tenant, seed) so the oracle realizes each bundle
// once.
func (o *oracle) verify(ctx context.Context, samples []sample) (failed int, reasons []string) {
	// Nothing is timed here, so the oracle may have every core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	todo := make([]int, 0, len(samples))
	for i, sm := range samples {
		if sm.shed || sm.matched {
			continue
		}
		todo = append(todo, i)
	}
	sort.SliceStable(todo, func(a, b int) bool {
		x, y := samples[todo[a]].op, samples[todo[b]].op
		if x.tenant != y.tenant {
			return x.tenant < y.tenant
		}
		return x.seed < y.seed
	})
	for _, i := range todo {
		sm := &samples[i]
		q := sm.op
		if err := o.check(ctx, q, sm.status, sm.body); err != nil {
			sm.bad = true
			failed++
			if len(reasons) < 5 {
				reasons = append(reasons, fmt.Sprintf("%s %s seed %d: %v", q.kind, q.tenant, q.seed, err))
			}
		}
	}
	return failed, reasons
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
