package main

// The three fixtures the workloads run over. sbp is what cmd/mcdbserver
// serves; star is bench-owned so that a cheap VG leaves the engine
// visible in a served SQL query; ooc is the enginebench segment store.

import (
	"fmt"

	"modeldata/internal/engine"
	"modeldata/internal/experiments"
	"modeldata/internal/mcdb"
)

// sizes fixes every fixture and op-count knob of a run. Op counts are
// caps: a measured phase ends at its cap or at the -seconds deadline,
// whichever comes first, so smoke runs (no deadline) repeat exactly.
type sizes struct {
	patients int // sbp tuples
	iters    int // Monte Carlo iterations per sbp request
	stores   int // star fact cardinality
	sqlIters int // iterations per star SQL request

	oocRows     int
	oocSegRows  int
	spillBudget int64

	cachedOps       int // serve_cached requests
	cachedPool      int // distinct cached queries (fits the 256-entry result cache)
	exploreSessions int // serve_explore sessions of 1 realize + 10 estimate + 2 whatif
	sqlOps          int // serve_sql requests
	batchJobs       int // batch_ooc jobs (one op of every kind each)

	openSeconds float64 // serve_open schedule length when no -seconds is given
	openRates   [3]float64
	// serve_open tenants are dashboards: smaller tables and fewer
	// iterations than an analyst's session, so that the mix loads the
	// core lightly enough for its tail to be a property of the program
	// and not of which slow requests happened to overlap.
	openPatients int
	openIters    int
	openHotKeys  int // hot keys per tenant; 4 tenants together exceed the result cache
	openWarm     int // most popular hot keys per tenant requested in set-up
	openSeeds    int // realization seeds per tenant; exceeds the bundle LRU (8)

	setups int // timed set-ups per run; setup_s is their median
}

var fullSizes = sizes{
	patients: 500, iters: 1000, stores: 5000, sqlIters: 40,
	oocRows: 1_000_000, oocSegRows: 0, spillBudget: 1 << 20,
	cachedOps: 400_000, cachedPool: 64, exploreSessions: 400, sqlOps: 2000, batchJobs: 1000,
	openSeconds: 10, openRates: [3]float64{100, 200, 400}, openPatients: 100, openIters: 250, openHotKeys: 96, openWarm: 48, openSeeds: 12,
	setups: 3,
}

var smokeSizes = sizes{
	patients: 60, iters: 100, stores: 300, sqlIters: 6,
	oocRows: 40_000, oocSegRows: 4096, spillBudget: 16 << 10,
	cachedOps: 400, cachedPool: 16, exploreSessions: 3, sqlOps: 6, batchJobs: 2,
	openSeconds: 0.4, openRates: [3]float64{100, 200, 400}, openPatients: 30, openIters: 50, openHotKeys: 96, openWarm: 4, openSeeds: 12,
	setups: 1,
}

const (
	sbpTable = "sbp_data"
	sbpCol   = "sbp"

	// starSQL joins the stochastic fact to two deterministic dimensions
	// and filters on both a dimension attribute and the uncertain value.
	starSQL = "SELECT SUM(sales.amount) FROM sales JOIN stores ON sales.sid = stores.sid " +
		"JOIN regions ON stores.region = regions.rid WHERE regions.zone = 'north' AND sales.amount > 52"

	// smokeJoinSQL is the join CI's server-smoke job sends to mcdbserver.
	smokeJoinSQL = "SELECT AVG(sbp_data.sbp) FROM sbp_data JOIN patients ON sbp_data.pid = patients.pid"
)

// factTable names the stochastic table each served statement reads.
var factTable = map[string]string{starSQL: "sales", smokeJoinSQL: sbpTable}

func sbpDB(sz sizes) (*mcdb.DB, error) { return experiments.SBPDatabase(sz.patients) }

// starDB builds stores(sid, region, base), regions(rid, zone) and the
// stochastic sales(sid, amount) FOR EACH stores, amount ~ Normal(base, 5)
// read straight off the outer row.
func starDB(sz sizes) (*mcdb.DB, error) {
	base := engine.NewDatabase()
	stores := engine.MustNewTable("stores", engine.Schema{
		{Name: "sid", Type: engine.TypeInt},
		{Name: "region", Type: engine.TypeInt},
		{Name: "base", Type: engine.TypeFloat},
	})
	const regions = 16
	for i := 0; i < sz.stores; i++ {
		stores.MustInsert(engine.Int(int64(i)), engine.Int(int64(i%regions)), engine.Float(45+float64(i%13)))
	}
	base.Put(stores)
	reg := engine.MustNewTable("regions", engine.Schema{
		{Name: "rid", Type: engine.TypeInt},
		{Name: "zone", Type: engine.TypeString},
	})
	zones := []string{"north", "south", "east", "west"}
	for i := 0; i < regions; i++ {
		reg.MustInsert(engine.Int(int64(i)), engine.Str(zones[i%len(zones)]))
	}
	base.Put(reg)

	db := mcdb.New(base)
	err := db.AddSpec(&mcdb.TableSpec{
		Name: "sales",
		Schema: engine.Schema{
			{Name: "sid", Type: engine.TypeInt},
			{Name: "amount", Type: engine.TypeFloat},
		},
		ForEach: "stores",
		Params: func(_ *engine.Database, outer engine.Row) (engine.Row, error) {
			return engine.Row{outer[2], engine.Float(5)}, nil
		},
		VG: mcdb.NormalVG(),
		OutputRow: func(outer engine.Row, vg []engine.Value) engine.Row {
			return engine.Row{outer[0], vg[0]}
		},
		UncertainCols: []int{1},
	})
	if err != nil {
		return nil, fmt.Errorf("star fixture: %w", err)
	}
	return db, nil
}
