package modeldata_test

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
)

// pinnedDrawsDigest is the FNV-64a digest drawsDigest computes. It pins
// the absolute bits the MCDB executors draw, so any change to how a VG
// consumes its stream or how a draw lands in a cell shows here, not only
// a disagreement between two executors or worker counts.
const pinnedDrawsDigest uint64 = 0x899b0597d22d5118

// TestPinnedDraws computes one digest over every route a VG draw takes —
// bundles, one full instantiation, plan-once SQL under the default and a
// custom OutputRow, and a MapUnc what-if — at workers 1, 2 and 8, and
// compares it with the pinned value.
func TestPinnedDraws(t *testing.T) {
	for _, w := range workerCounts {
		if got := drawsDigest(t, w); got != pinnedDrawsDigest {
			t.Errorf("workers=%d: draws digest %#016x, want %#016x", w, got, pinnedDrawsDigest)
		}
	}
}

func drawsDigest(t *testing.T, workers int) uint64 {
	t.Helper()
	ctx := context.Background()
	h := fnv.New64a()
	db, err := experiments.SBPDatabase(500)
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range []uint64{1, 2, 99} {
		bundles, err := db.InstantiateBundledCtx(ctx, 1000, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		bt := bundles["sbp_data"]
		for i, det := range bt.Det {
			hashRow(h, det)
			for _, vals := range bt.Unc[i] {
				hashFloats(h, vals)
			}
		}
	}

	inst, err := db.Instantiate(rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := inst.Get("sbp_data")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		hashRow(h, row)
	}

	stats := parallel.NewStats()
	sctx := parallel.WithStats(ctx, stats)
	opts := mcdb.ExecOptions{Iterations: 200, Seed: 3, Workers: workers}
	for _, c := range []struct {
		db  *mcdb.DB
		sql string
	}{
		{db, "SELECT AVG(sbp) FROM sbp_data WHERE gender = 'M'"},
		{pinnedStarDB(t), "SELECT SUM(sales.amount) FROM sales JOIN stores ON sales.sid = stores.sid " +
			"JOIN regions ON stores.region = regions.rid WHERE regions.zone = 'north' AND sales.amount > 52"},
	} {
		got, err := c.db.NewSession().ExecSQL(sctx, c.sql, opts)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(h, got)
	}
	if once := stats.Registry().Counter(mcdb.MetricSQLPlanOnce).Value(); once != 2 {
		t.Fatalf("%d statements ran plan-once, want 2", once)
	}

	q := mcdb.AggQuery{Table: "sbp_data", Col: "sbp", Fn: engine.AggAvg}
	female := func(det engine.Row) bool { return det[1].AsString() == "F" }
	d := mcdb.Delta{Table: "sbp_data", Where: female, MapUnc: func(_ engine.Row, unc []float64) { unc[0] *= 1.1 }}
	got, err := db.NewSession().ExecDelta(ctx, q, mcdb.ExecOptions{Iterations: 1000, Seed: 2, Workers: workers}, d)
	if err != nil {
		t.Fatal(err)
	}
	hashFloats(h, got)
	return h.Sum64()
}

// pinnedStarDB is a star schema whose one stochastic table assembles its
// rows with a custom OutputRow: a store id and one normal draw.
func pinnedStarDB(t *testing.T) *mcdb.DB {
	t.Helper()
	base := engine.NewDatabase()
	stores := engine.MustNewTable("stores", engine.Schema{
		{Name: "sid", Type: engine.TypeInt}, {Name: "region", Type: engine.TypeInt}, {Name: "base", Type: engine.TypeFloat},
	})
	for i := 0; i < 60; i++ {
		stores.MustInsert(engine.Int(int64(i)), engine.Int(int64(i%8)), engine.Float(45+float64(i%13)))
	}
	base.Put(stores)
	regions := engine.MustNewTable("regions", engine.Schema{{Name: "rid", Type: engine.TypeInt}, {Name: "zone", Type: engine.TypeString}})
	for i := 0; i < 8; i++ {
		regions.MustInsert(engine.Int(int64(i)), engine.Str([]string{"north", "south"}[i%2]))
	}
	base.Put(regions)
	db := mcdb.New(base)
	err := db.AddSpec(&mcdb.TableSpec{Name: "sales", ForEach: "stores", UncertainCols: []int{1}, VG: mcdb.NormalVG(),
		Schema: engine.Schema{{Name: "sid", Type: engine.TypeInt}, {Name: "amount", Type: engine.TypeFloat}},
		Params: func(_ *engine.Database, outer engine.Row) (engine.Row, error) {
			return engine.Row{outer[2], engine.Float(5)}, nil
		},
		OutputRow: func(outer engine.Row, vg []engine.Value) engine.Row { return engine.Row{outer[0], vg[0]} }})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func hashFloats(h hash.Hash64, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// hashRow writes each cell's type and exact payload.
func hashRow(h hash.Hash64, row engine.Row) {
	var b [9]byte
	for _, v := range row {
		b[0] = byte(v.Type())
		var payload uint64
		switch v.Type() {
		case engine.TypeString:
			payload = uint64(len(v.AsString()))
		case engine.TypeFloat:
			payload = math.Float64bits(v.AsFloat())
		case engine.TypeBool:
			if v.AsBool() {
				payload = 1
			}
		default:
			payload = uint64(v.AsInt())
		}
		binary.LittleEndian.PutUint64(b[1:], payload)
		h.Write(b[:])
		if v.Type() == engine.TypeString {
			h.Write([]byte(v.AsString()))
		}
	}
}
