package engine

// Engine-level observability. The query builder and SQL executor carry
// no context.Context, so their metrics report into the process-wide
// obs.Default() registry; modeldata.Run diffs that registry around a
// run to attribute engine activity to it. engine.colfallback counts
// queries refused because a table broke the executable-table rule (a
// value whose dynamic type is not its column's schema type); the error
// the query returns names the column, row and type. Healthy runs keep
// it at 0.

import "modeldata/internal/obs"

// Metric names reported by the engine into obs.Default().
const (
	// MetricColFallback counts queries refused with ErrMixedColumn at
	// decodeTable (the name predates the removal of the row fallback).
	MetricColFallback = "engine.colfallback"
	// MetricColQueries counts query executions whose source decoded.
	MetricColQueries = "engine.colpath"
	// MetricRowsScanned counts rows examined by scan operators (filters
	// and distinct).
	MetricRowsScanned = "engine.rows_scanned"

	// MetricPlanPlanned counts queries whose join region executed from
	// an optimized plan; MetricPlanDirect counts executions that
	// replayed as written (storage-backed, or no region to plan).
	MetricPlanPlanned = "engine.plan.planned"
	MetricPlanDirect  = "engine.plan.direct"
	// MetricPlanReordered counts planned executions whose join order
	// differed from the written order.
	MetricPlanReordered = "engine.plan.reordered"
	// MetricPlanPushdown counts filters evaluated below a join they
	// were written above.
	MetricPlanPushdown = "engine.plan.pushdown"
	// MetricPlanCanonSorts counts the order-restoring sorts reordered
	// executions pay to stay byte-identical to the written path.
	MetricPlanCanonSorts = "engine.plan.canon_sorts"
	// MetricPlanCacheHits / Misses count join-order cache consultations
	// by Prepared statements.
	MetricPlanCacheHits   = "engine.plan.cache_hits"
	MetricPlanCacheMisses = "engine.plan.cache_misses"

	// Spill metrics carry the colstore. prefix because the storage layer
	// owns the out-of-core story, even though the spilling operators live
	// here (colstore depends on engine, not the other way around).
	//
	// MetricSpillPartitions counts Grace partitions processed by spilled
	// joins and group-bys; MetricSpillBytes counts bytes written to spill
	// files; MetricSpillFallbacks counts spills abandoned for in-memory
	// execution after a spill-file I/O error.
	MetricSpillPartitions = "colstore.spill_partitions"
	MetricSpillBytes      = "colstore.spill_bytes"
	MetricSpillFallbacks  = "colstore.spill_fallbacks"
)

var (
	colFallbacks = obs.Default().Counter(MetricColFallback)
	colQueries   = obs.Default().Counter(MetricColQueries)
	rowsScanned  = obs.Default().Counter(MetricRowsScanned)

	planPlanned     = obs.Default().Counter(MetricPlanPlanned)
	planDirect      = obs.Default().Counter(MetricPlanDirect)
	planReordered   = obs.Default().Counter(MetricPlanReordered)
	planPushdown    = obs.Default().Counter(MetricPlanPushdown)
	planCanonSorts  = obs.Default().Counter(MetricPlanCanonSorts)
	planCacheHits   = obs.Default().Counter(MetricPlanCacheHits)
	planCacheMisses = obs.Default().Counter(MetricPlanCacheMisses)

	spillPartitions = obs.Default().Counter(MetricSpillPartitions)
	spillBytes      = obs.Default().Counter(MetricSpillBytes)
	spillFallbacks  = obs.Default().Counter(MetricSpillFallbacks)
)
