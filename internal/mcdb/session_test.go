package mcdb

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modeldata/internal/engine"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// TestBundleCacheBoundedUnderSeedChurn is the long-running-server
// regression: a Session hammered with distinct (iterations, seed)
// configurations must keep its realization cache bounded, counting
// evictions, instead of holding every bundle set ever realized.
func TestBundleCacheBoundedUnderSeedChurn(t *testing.T) {
	db := sbpFixture(t, 6)
	s := db.NewSession()
	st := parallel.NewStats()
	ctx := parallel.WithStats(context.Background(), st)
	q := AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg}

	const churn = 40
	for seed := uint64(0); seed < churn; seed++ {
		if _, err := s.Exec(ctx, q, ExecOptions{Iterations: 5, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.bundles.Len(); got > DefaultBundleCacheCap {
		t.Fatalf("bundle cache holds %d entries, capacity %d", got, DefaultBundleCacheCap)
	}
	reg := st.Registry()
	if ev := reg.Counter(MetricRealizeCacheEvictions).Value(); ev != churn-DefaultBundleCacheCap {
		t.Fatalf("evictions = %d, want %d", ev, churn-DefaultBundleCacheCap)
	}
	if misses := reg.Counter(MetricRealizeCacheMisses).Value(); misses != churn {
		t.Fatalf("misses = %d, want %d", misses, churn)
	}

	// Recently used seeds still hit; evicted ones re-realize.
	if _, err := s.Exec(ctx, q, ExecOptions{Iterations: 5, Seed: churn - 1}); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter(MetricRealizeCacheHits).Value(); hits != 1 {
		t.Fatalf("hits = %d, want 1 for a recently cached seed", hits)
	}

	// A tiny explicit capacity is honored too.
	s2 := db.NewSessionCache(2)
	for seed := uint64(0); seed < 10; seed++ {
		if _, err := s2.Exec(ctx, q, ExecOptions{Iterations: 5, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s2.bundles.Len(); got > 2 {
		t.Fatalf("capacity-2 cache holds %d entries", got)
	}
}

// sameBits reports bitwise equality of two samples, all NaN payloads
// counting as one class.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// TestEstimateRunsMatchFull is the property the shared kernel rests
// on: restricted to any set of iterations, it yields at each of them
// bitwise what the full estimate holds there.
func TestEstimateRunsMatchFull(t *testing.T) {
	const iters = 64
	bundles, err := sbpFixture(t, 9).InstantiateBundled(iters, 5)
	if err != nil {
		t.Fatal(err)
	}
	bt := bundles["sbp_data"]
	// A query with ref ≥ 0 must give the bits of query ref, its closure
	// form; the last sets both forms, which must act as their
	// conjunction.
	above := func(det engine.Row, unc []float64) bool { return unc[0] > 135 }
	queries := []struct {
		q   AggQuery
		ref int // index of the query it must equal bit for bit, or -1
	}{
		{AggQuery{}, -1},
		{AggQuery{WhereUnc: above}, -1},
		{AggQuery{UncWhere: []UncCmp{{0, "gt", 135}}}, 1},
		{AggQuery{WhereUnc: func(det engine.Row, unc []float64) bool { return unc[0] > 125 && unc[0] <= 140 }}, -1},
		{AggQuery{UncWhere: []UncCmp{{0, "gt", 125}},
			WhereUnc: func(det engine.Row, unc []float64) bool { return unc[0] <= 140 }}, 3},
	}
	gen := rng.New(0xD127)
	for trial := 0; trial < 30; trial++ {
		density := float64(trial%6) / 5 // 0 (none dirty) … 1 (all dirty)
		flags := make([]bool, iters)
		for it := range flags {
			flags[it] = gen.Float64() < density
		}
		for _, fn := range []engine.AggFunc{engine.AggCount, engine.AggSum, engine.AggAvg} {
			fulls := make([][]float64, len(queries))
			for qi, qc := range queries {
				q := qc.q
				q.Col, q.Fn = "sbp", fn
				var full []float64
				var err error
				if len(q.UncWhere) == 0 {
					full, err = bt.Estimate("sbp", fn, q.WhereUnc)
				} else {
					full, err = bt.estimate(q, iterRun{0, iters}, []iterRun{{0, iters}})
				}
				if err != nil {
					t.Fatal(err)
				}
				part, err := bt.estimate(q, iterRun{0, iters}, runsOf(flags, iterRun{0, iters}))
				if err != nil {
					t.Fatal(err)
				}
				for it, dirty := range flags {
					if dirty && math.Float64bits(part[it]) != math.Float64bits(full[it]) {
						t.Fatalf("trial %d %v query %d iter %d: restricted %v, full %v", trial, fn, qi, it, part[it], full[it])
					}
				}
				if qc.ref >= 0 && !slices.EqualFunc(full, fulls[qc.ref], func(a, b float64) bool {
					return math.Float64bits(a) == math.Float64bits(b)
				}) {
					t.Fatalf("trial %d %v: query %d gives %v, its closure form %v", trial, fn, qi, full, fulls[qc.ref])
				}
				fulls[qi] = full
			}
		}
	}
}

// FuzzUncWhereMatchesClosure: over any small bundle of float bits —
// NaN, ±Inf, ±0 and denormals included — any typed conjuncts and any
// run set, the kernel's typed route gives the bits of a WhereUnc
// closure that reads each conjunct as engine.Value orders two floats.
// shape picks the bundle's size, the aggregate, and whether a WhereDet
// and an extra WhereUnc ride along; each 10 bytes of conj are one
// conjunct (position, operator, literal bits); bit it of runs puts
// iteration it in the run set.
func FuzzUncWhereMatchesClosure(f *testing.F) {
	lit := func(pos, op byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{pos, op}, math.Float64bits(v))
	}
	var grid []byte
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, 1, -2.5, 130} {
		grid = binary.LittleEndian.AppendUint64(grid, math.Float64bits(v))
	}
	f.Add(uint16(0), []byte{}, uint64(1), grid)
	f.Add(uint16(0x0f7d), lit(0, 4, 0), ^uint64(0), grid)
	f.Add(uint16(0x6abe), append(lit(1, 3, math.NaN()), lit(0, 1, math.Inf(1))...), uint64(0x00f0_f0f3), grid)
	f.Add(uint16(0x3ff3), append(lit(2, 5, -0.0), lit(1, 0, 1)...), uint64(0xaaaa_aaaa), grid)
	ops := []string{"eq", "ne", "lt", "le", "gt", "ge"}
	f.Fuzz(func(t *testing.T, shape uint16, conj []byte, runs uint64, vals []byte) {
		tuples, ncols, iters := 1+int(shape%4), 1+int(shape>>2%3), 1+int(shape>>4%24)
		fn := []engine.AggFunc{engine.AggCount, engine.AggSum, engine.AggAvg}[shape>>9%3]
		bt := &BundleTable{Name: "f", Schema: engine.Schema{{Name: "g", Type: engine.TypeInt}}, Iters: iters}
		for k := 0; k < ncols; k++ {
			bt.Schema = append(bt.Schema, engine.Column{Name: "u" + strconv.Itoa(k), Type: engine.TypeFloat})
			bt.UncertainCols = append(bt.UncertainCols, 1+k)
		}
		next := 0 // cycles through vals' 8-byte words; zeros when there are none
		for ti := 0; ti < tuples; ti++ {
			det := make(engine.Row, 1+ncols) // uncertain positions hold zero Values
			det[0] = engine.Int(int64(ti))
			bt.Det = append(bt.Det, det)
			unc := make([][]float64, ncols)
			for k := range unc {
				unc[k] = make([]float64, iters)
				for it := range unc[k] {
					if n := len(vals) / 8; n > 0 {
						unc[k][it] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*(next%n):]))
						next++
					}
				}
			}
			bt.Unc = append(bt.Unc, unc)
		}
		var cmps []UncCmp
		for ; len(conj) >= 10 && len(cmps) < 4; conj = conj[10:] {
			cmps = append(cmps, UncCmp{Pos: int(conj[0]) % ncols, Op: ops[int(conj[1])%len(ops)],
				Lit: math.Float64frombits(binary.LittleEndian.Uint64(conj[2:]))})
		}
		flags := make([]bool, iters)
		for it := range flags {
			flags[it] = runs>>it&1 == 1
		}

		typed := AggQuery{Col: "u" + strconv.Itoa(int(shape>>11)%ncols), Fn: fn, UncWhere: cmps}
		if shape>>13&1 == 1 {
			typed.WhereDet = func(det engine.Row) bool { return det[0].AsInt()%2 == 0 }
		}
		if shape>>14&1 == 1 {
			typed.WhereUnc = func(_ engine.Row, unc []float64) bool { return !(unc[ncols-1] > 1) }
		}
		closure := typed
		closure.UncWhere = nil
		closure.WhereUnc = func(det engine.Row, unc []float64) bool {
			for _, c := range cmps {
				u, l := engine.Float(unc[c.Pos]), engine.Float(c.Lit)
				var ok bool
				switch c.Op {
				case "eq":
					ok = u.Equal(l)
				case "ne":
					ok = !u.Equal(l)
				case "lt":
					ok = u.Less(l)
				case "le":
					ok = !l.Less(u)
				case "gt":
					ok = l.Less(u)
				case "ge":
					ok = !u.Less(l)
				}
				if !ok {
					return false
				}
			}
			return typed.WhereUnc == nil || typed.WhereUnc(det, unc)
		}
		got, err := bt.estimate(typed, iterRun{0, iters}, runsOf(flags, iterRun{0, iters}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := bt.estimate(closure, iterRun{0, iters}, runsOf(flags, iterRun{0, iters}))
		if err != nil {
			t.Fatal(err)
		}
		for it := range want {
			if math.Float64bits(got[it]) != math.Float64bits(want[it]) {
				t.Fatalf("iter %d of %v under %v: typed %v (%#x), closure %v (%#x)",
					it, fn, cmps, got[it], math.Float64bits(got[it]), want[it], math.Float64bits(want[it]))
			}
		}
	})
}

// TestExplainSQLCachedInstantiation checks the server-readiness fix:
// the seed-0 explain instantiation is built once per session, and a
// canceled context aborts the build instead of running to completion.
func TestExplainSQLCachedInstantiation(t *testing.T) {
	db := sbpFixture(t, 5)
	s := db.NewSession()
	ctx := context.Background()
	const sql = "SELECT COUNT(pid) FROM sbp_data"
	if _, _, err := s.ExplainSQL(ctx, sql); err != nil {
		t.Fatal(err)
	}
	inst1 := s.explainInst
	if inst1 == nil {
		t.Fatal("explain instantiation not cached")
	}
	if _, _, err := s.ExplainSQL(ctx, "SELECT SUM(sbp) FROM sbp_data"); err != nil {
		t.Fatal(err)
	}
	if s.explainInst != inst1 {
		t.Fatal("second EXPLAIN rebuilt the instantiation")
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	s2 := db.NewSession()
	if _, _, err := s2.ExplainSQL(canceled, sql); err == nil {
		t.Fatal("ExplainSQL ignored a canceled context")
	}
	if s2.explainInst != nil {
		t.Fatal("canceled EXPLAIN must not cache a partial instantiation")
	}
}

// TestSessionConcurrentHammer drives one Session from many goroutines
// mixing every public entry point under -race, asserting each caller
// sees samples bit-identical to a serial reference run. ExecSQL is the
// per-instance executor's entry here; its aggregate form runs the same
// loop.
func TestSessionConcurrentHammer(t *testing.T) {
	db := sbpFixture(t, 6)
	ref := db.NewSession()
	ctx := context.Background()

	aggQ := AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg}
	const sql = "SELECT AVG(sbp_data.sbp) FROM sbp_data JOIN patients ON sbp_data.pid = patients.pid WHERE patients.gender = 'M'"
	const explainSQL = "SELECT COUNT(pid) FROM sbp_data"

	seeds := []uint64{1, 2, 3}
	wantBundle := make(map[uint64][]float64)
	wantSQL := make(map[uint64][]float64)
	for _, seed := range seeds {
		opts := ExecOptions{Iterations: 12, Seed: seed, Workers: 1}
		b, err := ref.Exec(ctx, aggQ, opts)
		if err != nil {
			t.Fatal(err)
		}
		wantBundle[seed] = b
		sq, err := ref.ExecSQL(ctx, sql, ExecOptions{Iterations: 12, Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantSQL[seed] = sq
	}
	wantExplain, _, err := ref.ExplainSQL(ctx, explainSQL)
	if err != nil {
		t.Fatal(err)
	}

	s := db.NewSession()
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				seed := seeds[(g+round)%len(seeds)]
				opts := ExecOptions{Iterations: 12, Seed: seed, Workers: 2}
				switch g % 3 {
				case 0:
					got, err := s.Exec(ctx, aggQ, opts)
					if err != nil {
						errc <- err
						return
					}
					for i := range got {
						if got[i] != wantBundle[seed][i] {
							t.Errorf("goroutine %d: bundle seed %d iter %d: %v != %v", g, seed, i, got[i], wantBundle[seed][i])
							return
						}
					}
				case 1:
					got, err := s.ExecSQL(ctx, sql, ExecOptions{Iterations: 12, Seed: seed, Workers: 2})
					if err != nil {
						errc <- err
						return
					}
					for i := range got {
						if got[i] != wantSQL[seed][i] {
							t.Errorf("goroutine %d: sql seed %d iter %d: %v != %v", g, seed, i, got[i], wantSQL[seed][i])
							return
						}
					}
				case 2:
					if _, err := s.Prepared(sql); err != nil {
						errc <- err
						return
					}
					text, _, err := s.ExplainSQL(ctx, explainSQL)
					if err != nil {
						errc <- err
						return
					}
					if !strings.Contains(text, "scan sbp_data") || text != wantExplain {
						t.Errorf("goroutine %d: EXPLAIN text diverged", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestPreparedCacheBoundedUnderStatementChurn is the companion
// regression to the bundle-cache test for the other per-session cache:
// a session fed distinct SQL texts (a query service relaying arbitrary
// tenant statements) must keep its prepared-statement cache bounded
// instead of pinning every plan ever parsed, while repeated texts still
// share one Prepared.
func TestPreparedCacheBoundedUnderStatementChurn(t *testing.T) {
	db := sbpFixture(t, 4)
	s := db.NewSession()

	first, err := s.Prepared("SELECT AVG(sbp) FROM sbp_data")
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Prepared("SELECT AVG(sbp) FROM sbp_data")
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("repeated statement text must share one *engine.Prepared")
	}

	for i := 0; i < 3*DefaultPreparedCacheCap; i++ {
		sql := "SELECT AVG(sbp) FROM sbp_data WHERE sbp > " + strconv.Itoa(i)
		if _, err := s.Prepared(sql); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.prepared.Len(); got > DefaultPreparedCacheCap {
		t.Fatalf("prepared cache holds %d entries, capacity %d", got, DefaultPreparedCacheCap)
	}

	// An evicted statement still works — it is simply re-prepared.
	ctx := context.Background()
	if _, err := s.ExecSQL(ctx, "SELECT AVG(sbp) FROM sbp_data", ExecOptions{Iterations: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmSessionMatchesColdSessions: a warm session answers every run
// from what it resolved and bound once — outer and parameter rows, the
// plan-once binding made over another seed's iteration — and still
// returns, for every seed and window, the bits a cold session and
// DB.MonteCarlo return: after a bind a cancellation cut short, at
// windows that start past 0 or are empty, and from four goroutines at
// once.
func TestWarmSessionMatchesColdSessions(t *testing.T) {
	const tuples, iters = 600, 9
	var calls, cancelAt atomic.Int64 // cancelAt 0: no VG call cancels
	var cancel context.CancelFunc
	normal := NormalVG()
	db := New(itemsBase(tuples))
	if err := db.AddSpec(&TableSpec{Name: "t", Schema: idWVal, ForEach: "items", Params: wStd, UncertainCols: []int{2},
		VG: VG{Width: 1, Draw: func(params engine.Row, r *rng.Stream, out [][]float64) error {
			if calls.Add(1) == cancelAt.Load() {
				cancel()
			}
			return normal.Draw(params, r, out)
		}}}); err != nil {
		t.Fatal(err)
	}
	const planOnce = "SELECT SUM(t.val) FROM t JOIN items ON t.id = items.id WHERE items.w > 11 AND t.val > 10"
	const perInstance = "SELECT SUM(t.val) FROM t JOIN t ON t.id = t.id WHERE t.val > 10"
	seeds := []uint64{1, 2, 5}
	windows := [][2]int{{2, 7}, {0, iters}, {4, 4}, {8, iters}, {0, 1}, {3, 6}}
	ctx := context.Background()
	want := map[string]map[uint64][]float64{}
	for _, sql := range []string{planOnce, perInstance} {
		p, err := engine.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[sql] = map[uint64][]float64{}
		for _, seed := range seeds {
			if want[sql][seed], err = db.MonteCarlo(ctx, iters, seed, 1, p.Scalar); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(who, sql string, seed uint64, w [2]int, got []float64) error {
		if len(got) != w[1]-w[0] {
			return errors.New(who + ": wrong sample count")
		}
		for i, v := range got {
			if it := w[0] + i; !sameBits(v, want[sql][seed][it]) {
				t.Errorf("%s, %s, seed %d, window %v, iteration %d: %v, MonteCarlo %v", who, sql, seed, w, it, v, want[sql][seed][it])
				return errors.New("bits differ")
			}
		}
		return nil
	}

	// The first plan-once request is cancelled while it binds.
	warm := db.NewSession()
	var cctx context.Context
	cctx, cancel = context.WithCancel(ctx)
	cancelAt.Store(calls.Load() + 10)
	_, err := warm.ExecSQLRange(cctx, planOnce, ExecOptions{Iterations: iters, Seed: 7, Workers: 1}, 2, 7)
	cancel()
	cancelAt.Store(0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled bind: got %v, want context.Canceled", err)
	}
	if st, ok := warm.prepared.Get(planOnce); !ok || st.ran {
		t.Fatal("the cancelled request did not stop inside the bind")
	}

	stats := parallel.NewStats()
	sctx := parallel.WithStats(ctx, stats)
	requests := 0
	for _, seed := range seeds {
		for _, w := range windows {
			for _, sql := range []string{planOnce, perInstance} {
				opts := ExecOptions{Iterations: iters, Seed: seed, Workers: 2}
				cold, err := db.NewSession().ExecSQLRange(ctx, sql, opts, w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				got, err := warm.ExecSQLRange(sctx, sql, opts, w[0], w[1])
				if err != nil {
					t.Fatal(err)
				}
				if check("cold", sql, seed, w, cold) != nil || check("warm", sql, seed, w, got) != nil {
					return
				}
				requests++
			}
		}
	}
	reg := stats.Registry()
	if once, per := reg.Counter(MetricSQLPlanOnce).Value(), reg.Counter(MetricSQLPerInstance).Value(); once != int64(requests/2) || per != int64(requests/2) {
		t.Fatalf("%d requests ran plan-once and %d per instance, want %d each", once, per, requests/2)
	}

	shared := db.NewSession()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < len(seeds)*len(windows)*2; j++ {
				k := (j + 5*g) % (len(seeds) * len(windows) * 2)
				seed, w, sql := seeds[k%len(seeds)], windows[k/len(seeds)%len(windows)], []string{planOnce, perInstance}[k/len(seeds)/len(windows)]
				got, err := shared.ExecSQLRange(ctx, sql, ExecOptions{Iterations: iters, Seed: seed, Workers: 2}, w[0], w[1])
				if err != nil {
					t.Error(err)
					return
				}
				if check("concurrent", sql, seed, w, got) != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWarmSessionReusedVectorsMatchCold: the draws of a plan-once window
// share their vector sets, so a set the last draw filled — or half
// filled before it failed — is what the next draw is handed. Every
// answer is still DB.MonteCarlo's bits: at 1, 2 and 8 workers, over
// windows that start past 0, after a bind a cancellation cut short,
// after a request whose draw failed partway, and while draws fail
// partway and are retried. The statement reads two uncertain columns of
// the second of two specs, so a set holds two vectors and the scratch
// row serves specs of two widths.
func TestWarmSessionReusedVectorsMatchCold(t *testing.T) {
	const tuples, iters = 300, 12
	// While failing, every failEvery-th call of t's VG fails: about one
	// draw in three, so its retries get past it.
	const failEvery = 1009
	var calls, cancelAt, failing atomic.Int64 // 0: no VG call cancels or fails
	var cancel context.CancelFunc
	errFlaky := errors.New("flaky VG")
	db := New(itemsBase(tuples))
	if err := db.AddSpec(&TableSpec{Name: "u", Schema: idWVal, ForEach: "items", Params: wStd, UncertainCols: []int{2}, VG: NormalVG()}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddSpec(&TableSpec{Name: "t", ForEach: "items", Params: wStd, UncertainCols: []int{2, 3},
		Schema: append(idWVal.Clone(), engine.Column{Name: "x", Type: engine.TypeFloat}),
		VG: drawEach(2, func(params engine.Row, r *rng.Stream, vals []float64) error {
			n := calls.Add(1)
			if n == cancelAt.Load() {
				cancel()
			}
			if failing.Load() != 0 && n%failEvery == 0 {
				return errFlaky
			}
			vals[0], vals[1] = r.Normal(params[0].AsFloat(), params[1].AsFloat()), r.Float64()
			return nil
		})}); err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT SUM(t.val) FROM t JOIN items ON t.id = items.id WHERE items.w > 9 AND t.x > 0.3"
	p, err := engine.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seeds := []uint64{1, 5}
	want := map[uint64][]float64{}
	for _, seed := range seeds {
		if want[seed], err = db.MonteCarlo(ctx, iters, seed, 1, p.Scalar); err != nil {
			t.Fatal(err)
		}
	}

	warm := db.NewSession()
	var cctx context.Context
	cctx, cancel = context.WithCancel(ctx)
	cancelAt.Store(calls.Load() + tuples/2)
	_, err = warm.ExecSQLRange(cctx, sql, ExecOptions{Iterations: iters, Seed: 7, Workers: 2}, 3, iters)
	cancel()
	cancelAt.Store(0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled bind: got %v, want context.Canceled", err)
	}
	if st, ok := warm.prepared.Get(sql); !ok || st.ran {
		t.Fatal("the cancelled request did not stop inside the bind")
	}

	windows := [][2]int{{3, iters}, {1, 6}, {0, iters}, {iters - 1, iters}}
	run := func(phase string, ctx context.Context) {
		t.Helper()
		for _, workers := range []int{1, 2, 8} {
			for _, seed := range seeds {
				for _, w := range windows {
					got, err := warm.ExecSQLRange(ctx, sql, ExecOptions{Iterations: iters, Seed: seed, Workers: workers}, w[0], w[1])
					if err != nil {
						t.Fatalf("%s, %d workers, seed %d, window %v: %v", phase, workers, seed, w, err)
					}
					for i, v := range got {
						if it := w[0] + i; math.Float64bits(v) != math.Float64bits(want[seed][it]) {
							t.Fatalf("%s, %d workers, seed %d, window %v, iteration %d: %v, MonteCarlo %v", phase, workers, seed, w, it, v, want[seed][it])
						}
					}
				}
			}
		}
	}
	run("after the cancelled bind", ctx)

	// Unretried, a draw that fails partway fails its request, and the
	// session answers the next one as if it had not happened.
	failing.Store(1)
	for _, workers := range []int{1, 8} {
		opts := ExecOptions{Iterations: iters, Seed: 5, Workers: workers}
		if _, err := warm.ExecSQL(ctx, sql, opts); !errors.Is(err, errFlaky) {
			t.Fatalf("%d workers, a VG failing every %d calls: got %v, want it in the error", workers, failEvery, err)
		}
	}
	failing.Store(0)
	run("after a failed draw", ctx)

	failing.Store(1)
	stats := parallel.NewStats()
	run("under retried failures", parallel.WithStats(parallel.WithRetryPolicy(ctx, parallel.RetryPolicy{MaxRetries: 50, Backoff: time.Microsecond, MaxBackoff: time.Microsecond}), stats))
	failing.Store(0)
	if stats.Registry().Counter(parallel.MetricRetries).Value() == 0 {
		t.Fatal("no draw failed and was retried")
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes one
// call of f allocates, after a warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWhatIfSkipsTuplesTheQueryCannotSee: a MapUnc what-if whose tuples
// the query's WhereDet rejects returns the changed world's bits with
// every iteration reused, and re-maps none of them. So from 100 to 1 000
// iterations what it allocates grows by its per-iteration sample vectors
// only: a copy of the 150 hidden tuples' arrays would add 1 200 B per
// iteration.
func TestWhatIfSkipsTuplesTheQueryCannotSee(t *testing.T) {
	db := sbpFixture(t, 300)
	q := AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggSum,
		WhereDet: func(det engine.Row) bool { return det[1].AsString() == "M" }}
	d := Delta{Table: "sbp_data", Where: func(det engine.Row) bool { return det[1].AsString() == "F" },
		MapUnc: func(_ engine.Row, unc []float64) { unc[0] = math.Min(unc[0], 140) }}
	ctx := context.Background()
	s := db.NewSession()
	bytes := map[int]float64{}
	for _, iters := range []int{100, 1000} {
		opts := ExecOptions{Iterations: iters, Seed: 23, Workers: 1}
		_, reg := whatIf(t, db, q, opts, d)
		if skipped := reg.Counter(MetricDeltaItersSkipped).Value(); skipped != int64(iters) {
			t.Fatalf("%d iterations: delta_iters_skipped = %d, want all", iters, skipped)
		}
		if n := reg.Counter(MetricDeltaTuplesRerealized).Value(); n != 0 {
			t.Fatalf("%d iterations: %d hidden tuples re-mapped", iters, n)
		}
		bytes[iters] = bytesPerRun(5, func() {
			if _, err := s.ExecDelta(ctx, q, opts, d); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Per added iteration: a dirty flag and the sum and count samples.
	if perIter := (bytes[1000] - bytes[100]) / 900; perIter >= 64 {
		t.Fatalf("%.0f B at 100 iterations, %.0f B at 1000: %.1f B per added iteration, want < 64", bytes[100], bytes[1000], perIter)
	}
}
