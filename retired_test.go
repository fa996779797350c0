package modeldata_test

// What earlier PRs deleted stays deleted. Each row below is an
// invariant a PR bought by removing a second code path, a second
// harness or a byte-at-a-time loop; the identifiers and paths that
// belonged to the removed half must not come back. These were grep
// steps in CI, which no `go test ./...` runs; here they are tier-1.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// offender is a line pattern and one line it must match: the example
// is checked first, so a mistyped regexp cannot silently un-guard.
type offender struct{ pattern, example string }

type retired struct {
	name  string     // the invariant
	pr    int        // the PR that retired what is listed
	why   string     // what coming back would mean
	scope []string   // directories (walked) and files, relative to the module root
	tests bool       // _test.go files are searched too
	lines []offender // must match no line of a .go file in scope
	paths []string   // globs relative to the module root that must match nothing
}

var retiredTable = []retired{
	{
		name: "One execution route", pr: 13,
		why:   "the engine has one operator implementation, over ColumnBlock; these belonged to the row route (its expression compiler, its fallback latch, its half of provenance)",
		scope: []string{"internal/engine"},
		lines: []offender{
			{`compileExprRow`, `func compileExprRow(e Expr) (rowFn, error) {`},
			{`noCol`, `if c.noCol {`},
			{`annotateTable`, `t = annotateTable(t, leaf)`},
		},
	},
	{
		name: "One execution route", pr: 37,
		why:   "lineage is a Monte Carlo answer, Session.ExecLineage's interned tuple indexes; the engine's provenance route, which no caller ran, the uncalled copy of the partitioned self-join and the third way to install a retry policy were second paths",
		scope: []string{"internal/engine", "internal/mcdb", "internal/server", "internal/parallel"},
		tests: true,
		lines: []offender{
			{`WithProvenance`, `func (q *Query) WithProvenance() *Query {`},
			{`provColName`, `const provColName = "\x00prov"`},
			{`HasLineage`, `func (t *Table) HasLineage() bool { return t.lineage != nil }`},
			{`PartitionedSelfJoin`, `func PartitionedSelfJoin(t *Table, partKey func(Row) string,`},
			{`opts\.Retry`, `if opts.Retry != nil {`},
		},
		paths: []string{"internal/prov"},
	},
	{
		name: "One Monte Carlo core", pr: 15,
		why:   "internal/mcdb writes each of its loops once and the spec, not an option, picks the executor; these were the second copies and the switch that selected them",
		scope: []string{"internal/mcdb", "internal/server"},
		lines: []offender{
			{`realizeRows`, `rows, err := db.realizeRows(spec, r)`},
			{`estimateDirty`, `func (b *BundleTable) estimateDirty(q AggQuery) []float64 {`},
			{`execNaive`, `return s.execNaive(ctx, q, opts)`},
			{`StrategyNaive`, `case StrategyNaive:`},
			{`parseStrategy`, `st, err := parseStrategy(req.Strategy)`},
		},
	},
	{
		name: "One Monte Carlo core", pr: 16,
		why:   "an uncertain-column predicate is a plain float64 comparison, not a boxed compare per tuple-iteration",
		scope: []string{"internal/mcdb", "internal/server"},
		lines: []offender{
			{`cmp\(engine\.Float\(u\[`, `return cmp(engine.Float(u[i]), lit)`},
		},
	},
	{
		name: "One Monte Carlo core", pr: 19,
		why:   "a realization is one slab filled by realizeSpec, not a row allocated and Inserted per tuple",
		scope: []string{"internal/mcdb", "internal/server"},
		lines: []offender{
			{`realizeTuple`, `row, err := db.realizeTuple(spec, outer, r)`},
		},
	},
	{
		name: "One Monte Carlo core", pr: 24,
		why:   "a SQL statement over a stochastic table runs its joins once through the engine (Session.ExecSQL's plan-once executor), not through BundleTable's hand-written join and realize",
		scope: []string{"internal/mcdb", "internal/server"},
		lines: []offender{
			{`JoinDet`, `func (b *BundleTable) JoinDet(right *engine.Table, on ...string) (*BundleTable, error) {`},
			{`RealizeBlock`, `blk, err := b.RealizeBlock(it)`},
			{`\) Realize\(`, `func (b *BundleTable) Realize(it int) (*engine.Table, error) {`},
		},
	},
	{
		name: "One Monte Carlo core", pr: 33,
		why:   "a Session resolves the FOR EACH and VG parameter rows once for its life and every route reads them; resolving them again per request was the second copy",
		scope: []string{"internal/mcdb", "internal/server"},
		lines: []offender{
			{`perInstanceOnce`, `return s.db.perInstanceOnce(ctx, opts, lo, hi, instanceAgg(q, colIdx))`},
		},
	},
	{
		name: "One Monte Carlo core", pr: 35,
		why:   "an engine.Value keeps one payload word and every constructor zeroes the rest, so == on two Values is same-type-same-bits; a helper recomputing that per cell was the second definition",
		scope: []string{"internal/mcdb", "internal/server"},
		lines: []offender{
			{`sameCell`, `if !sameCell(&row[c], &first[i][c]) {`},
		},
	},
	{
		name: "One Monte Carlo core", pr: 38,
		why:   "a /v1/query uncertain predicate reaches mcdb as UncCmp data, which the estimate kernel tests by one typed loop per conjunct over a run, and the kernel tests WhereDet once per tuple; a float closure per conjunct and a filtered copy of the bundle per query were the second paths",
		scope: []string{"internal/mcdb", "internal/server"},
		lines: []offender{
			{`bt = bt\.FilterDet\(`, `		bt = bt.FilterDet(q.WhereDet)`},
			{`func\(a, b float64\) bool`, `			func(a, b float64) bool { return a < b }, nil`},
		},
	},
	{
		name: "One harness", pr: 17,
		why:   "bench/ is the only benchmark harness; these were the second one, its committed reports, and the two switches that gave it a slow baseline to take ratios over",
		scope: []string{"."},
		tests: true,
		lines: []offender{
			{`SetPlannerDefault`, `engine.SetPlannerDefault(false)`},
			{`DisablePruning`, `colstore.Options{DisablePruning: true}`},
			{`OOCWorkloads`, `for _, w := range enginebench.OOCWorkloads(rows) {`},
			{`PlannerWorkloads`, `func PlannerWorkloads() []Workload {`},
		},
		paths: []string{"cmd/benchjson", "BENCH_*.json"},
	},
	{
		name: "One response encoder", pr: 22,
		why:   "every /v1 body is appended to a buffer by encode.go and written once; encoding into the ResponseWriter is how an unencodable value became 200 with an empty body",
		scope: []string{"internal/server/http.go"},
		lines: []offender{
			{`json\.NewEncoder\(w\)`, `if err := json.NewEncoder(w).Encode(resp); err != nil {`},
		},
	},
	{
		name: "A stored pass costs what the query reads", pr: 23,
		why:   "a storage scan is handed the columns the query can observe; a nil projection is computed, never written",
		scope: []string{"internal/engine/query.go"},
		lines: []offender{
			{`ScanPartitions\(ctx, nil`, `parts, err := src.ScanPartitions(ctx, nil, preds)`},
		},
	},
	{
		name: "A stored pass costs what the query reads", pr: 23,
		why:   "a column block is checksummed by hardware CRC-32C in one call, not by the byte-at-a-time FNV loop that was a quarter of every read",
		scope: []string{"internal/colstore"},
		lines: []offender{
			{`fnv`, `h := fnv.New64a()`},
		},
	},
	{
		name: "One Grace group-by", pr: 29,
		why:   "a spilled group-by writes the columns it reads as runs of one spill file and aggregates each partition from its own rows; spilling row numbers to gather back from the concatenated input, one file per partition, was the second design",
		scope: []string{"internal/engine"},
		lines: []offender{
			{`readIndexes`, `logical, err := parts.readIndexes(p)`},
			{`%03d\.part`, `f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%03d.part", name, i)))`},
		},
	},
	{
		name: "Lint keeps the rules that have caught something", pr: 31,
		why:   "lockguard, spanleak and floateq had no finding fixed in any committed tree, and the control-flow graph served only the first two; dependencies are read from the go command's export data, not type-checked from source in dependency waves",
		scope: []string{"internal/lint"},
		tests: true,
		lines: []offender{
			{`BuildCFG`, `g := lint.BuildCFG(body)`},
			{`topoWaves`, `for _, wave := range topoWaves(mod) {`},
			{`importer\.ForCompiler\(.*"source"`, `src: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),`},
		},
		paths: []string{"internal/lint/lockguard", "internal/lint/spanleak", "internal/lint/floateq", "internal/lint/cfg.go"},
	},
	{
		name: "One oracle for the query engine", pr: 40,
		why:   "the golden lattice compares the planned route with the storage route production runs as written; a switch that turned the planner off existed only for tests to compare against",
		scope: []string{"internal/engine"},
		tests: true,
		lines: []offender{
			{`WithPlanner`, `func (q *Query) WithPlanner(on bool) *Query {`},
			{`plannerOff`, `	nq.plannerOff = !on`},
		},
	},
	{
		name: "One oracle for the query engine", pr: 40,
		why:   "a plan is encoded for EXPLAIN JSON and the server, never decoded; the decoder and its hash had no caller but their own round-trip test",
		scope: []string{"internal/engine/plan"},
		lines: []offender{
			{`FromJSON`, `func FromJSON(data []byte) (*Tree, error) {`},
			{`Fingerprint`, `func (t *Tree) Fingerprint() string {`},
		},
	},
	{
		name: "One oracle for the query engine", pr: 40,
		why:   "the engine's golden suite is its one randomized oracle, and it runs every pipeline over a colstore store; a second generator in colstore mirrored it",
		scope: []string{"internal/colstore"},
		tests: true,
		lines: []offender{
			{`func randomPipeline`, `func randomPipeline(r *rng.Stream, join *engine.Table) *pipeline {`},
			{`func randomTable`, `func randomTable(r *rng.Stream, name string, n int) *engine.Table {`},
		},
	},
	{
		name: "One oracle for the query engine", pr: 40,
		why:   "engine.DiffTables is the one definition of the same answer: bit identity with every NaN one class; private comparisons drifted (typed values, ==) from it",
		scope: []string{"internal/engine", "internal/colstore"},
		tests: true,
		lines: []offender{
			{`func sameValueBits`, `func sameValueBits(a, b engine.Value) bool {`},
			{`func tablesEqualForTest`, `func tablesEqualForTest(a, b *Table) bool {`},
		},
	},
	{
		name: "One filter language", pr: 42,
		why:   "every filter the engine runs is a plan.Expr, which the planner, the zone maps and EXPLAIN read; the Go-closure operators kept a second, opaque filter language alive, and Algorithm 1 is one prepared-SQL policy",
		scope: []string{"internal/engine", "internal/colstore", "internal/indemics", "internal/experiments", "examples"},
		tests: true,
		lines: []offender{
			{`WhereFloat`, `func (q *Query) WhereFloat(col string, pred func(float64) bool) *Query {`},
			{`WhereString`, `func (q *Query) WhereString(col string, pred func(string) bool) *Query {`},
			{`ColPred`, `type ColPred struct {`},
			{`colPredFns`, `func (q *Query) colPredFns(ref int) (func(float64) bool, func(string) bool) {`},
			{`opWhereRow`, `opWhereRow opKind = iota // opaque row predicate`},
			{`opExtend`, `case opExtend:`},
			{`func \(q \*Query\) Extend`, `func (q *Query) Extend(name string, typ Type, f func(Row) Value) *Query {`},
			{`func \(q \*Query\) Where\(`, `func (q *Query) Where(pred Predicate) *Query {`},
			{`VaccinatePreschoolersSQL`, `func VaccinatePreschoolersSQL(triggerFrac float64) (Observer, *int) {`},
		},
	},
	{
		name: "One filter language", pr: 42,
		why:   "nothing compared floats with a tolerance helper once the floateq lint rule was deleted; the sanctioned replacement for it stayed behind uncalled",
		scope: []string{"internal/stats"},
		tests: true,
		lines: []offender{
			{`func ApproxEqual`, `func ApproxEqual(a, b, tol float64) bool {`},
		},
	},
	{
		name: "A counter has one home", pr: 44,
		why:   "a run's counters are read from its registry (parallel.Stats.Registry, modeldata.Stats.Metrics), and retries, speculation and fault injection are asked for on the context; the typed mirrors were second copies of the registry, and mapreduce.Config's fault knobs, with the context-free ParallelInterpolate, the second way to install a retry policy",
		scope: []string{"modeldata.go", "internal/parallel", "internal/mapreduce", "internal/timeseries", "examples/splash"},
		tests: true,
		lines: []offender{
			{`func \(s \*Stats\) (Iterations|ShuffleBytes|TaskAttempts|Retries|SpeculativeLaunches|SpeculativeWins|BackoffTime|SamplesPerSec|Snapshot)\(`, `func (s *Stats) Retries() int64 {`},
			{`type Snapshot struct`, `type Snapshot struct {`},
			{`^\s*(Iterations|TaskAttempts|Retries|SpeculativeLaunches|SpeculativeWins|BackoffTime|SamplesPerSec|RowsScanned|ColumnarQueries|ColumnarFallbacks|RealizeCacheHits|RealizeCacheMisses)\s+(int64|float64|time\.Duration)`, "\tRetries             int64"},
			{`taskStats|\bs\.ts\.`, `s.ts.retries++`},
			{`faultSetup`, `pol, inj := cfg.faultSetup(ctx)`},
			{`cfg\.(MaxRetries|Backoff|SpeculativeFactor|Injector|SizeOf)\b`, `cfg.MaxRetries = 8`},
			{`\bParallelInterpolate\(`, `clean, _, err := timeseries.ParallelInterpolate(sp, targets, cfg)`},
		},
	},
	{
		name: "One VG form", pr: 45,
		why:   "a VG draws a tuple's run of realizations into typed vectors (mcdb.VG.Draw) and the schema types the cells; the boxed form, one call and one engine.Value per draw, was the second way to write a VG and the reason the bundle loop ran above the RNG floor",
		scope: []string{"internal/mcdb", "internal/server", "examples"},
		tests: true,
		lines: []offender{
			{`out \[\]engine\.Value\) \(\[\]engine\.Value, error\)`, `VG: func(params engine.Row, r *rng.Stream, out []engine.Value) ([]engine.Value, error) {`},
		},
	},
	{
		name: "A what-if is a value transform", pr: 47,
		why:   "a delta maps realized values (mcdb.Delta.MapUnc); re-sampling affected tuples under a replaced VG or parameter query was the second way to state a what-if, and it kept a second copy of the bundle stream layout",
		scope: []string{"internal/mcdb"},
		tests: true,
		lines: []offender{
			{`specStream`, `subs := specStream(opts.Seed, si).SplitN(len(outers))`},
			{`\bd\.(VG|Params)\b`, `if d.VG.Draw != nil {`},
			{`detChanged`, `dirty, dirtyCount := markDirty(q, oldBt, newBt, affected, detChanged, opts.Iterations)`},
		},
	},
	{
		name: "One normal generator", pr: 49,
		why:   "rng.Stream.StdNormal is a Ziggurat that draws each value from one Uint64 and keeps no state between calls; the Box–Muller pair and the spare it cached in the Stream were the second generator",
		scope: []string{"internal/rng"},
		tests: true,
		lines: []offender{
			{`haveGauss|\br\.gauss\b`, `if r.haveGauss {`},
			{`math\.Sincos\(|StdNormalSincos`, `sin, cos := math.Sincos(2 * math.Pi * u2)`},
		},
	},
	{
		name: "A join emits in left order", pr: 50,
		why:   "every join emits the left rows in order, each followed by its right matches, whichever input it hashes; the planner's count of the written path's intermediates, its forced build sides and position-ranked filters, and the streamed join's re-sort existed only to reproduce an order that followed the build side",
		scope: []string{"internal/engine"},
		tests: true,
		lines: []offender{
			{`canonLens`, `lens := canonLens(blocks, failPos, reg.joins, lj, rj)`},
			{`\bsat(Add|Mul|Cap)\b`, `w = satMul(w, cnt[c+1].codes[lc[c][i]])`},
			{`\bfailPos\b|\bfailNever\b`, `fp[i] = failNever`},
			{`\bbuildLeft\b|\bforced\b`, `buildLeft: bl[p], forced: true,`},
			{`\blrows\b`, `s.lrows += part.Len()`},
		},
	},
	{
		name: "One task runtime", pr: 51,
		why:   "a MapReduce stage is one parallel.For loop, whose retries run a task's attempts one after another; speculative backup attempts, the private scheduler that raced them and its straggler scan changed only wall time and counters, never an answer",
		scope: []string{"modeldata.go", "internal/parallel", "internal/mapreduce", "cmd/experiments", "examples/splash"},
		tests: true,
		lines: []offender{
			{`WithSpeculation`, `modeldata.WithSpeculation(*spec),`},
			{`SpeculativeFactor`, `ctx = parallel.WithRetryPolicy(ctx, parallel.RetryPolicy{MaxRetries: 6, SpeculativeFactor: 4})`},
			{`AddSpeculative`, `s.pstats.AddSpeculativeWins(1)`},
			{`MetricSpec`, `{MetricSpecLaunches, 0},`},
			{`checkStragglers`, `s.checkStragglersLocked(obs.Wall.Now())`},
			{`flag\.\w+\("spec"`, `spec := flag.Float64("spec", 0, "speculative-execution factor")`},
		},
	},
	{
		name: "One mcdb oracle", pr: 54,
		why:   "every mcdb executor is held to one seeded oracle (internal/mcdb/oracle_test.go) and its two plain references; the per-feature generators that each drew their own databases and requests, and compared executors with one another, were the second copies",
		scope: []string{"internal/mcdb"},
		tests: true,
		lines: []offender{
			{`\b(matchesMonteCarlo|diffBase|oddVG|diffSpecs|diffFroms|diffWheres|diffTails|diffAggs|diffStatement)\b`, `			matchesMonteCarlo(t, name, db, sql)`},
			{`\b(perInstanceTwin|buildDeltaDB|deltaWorld|deltaFor|requireSameSamples)\b`, `	db1 := buildDeltaDB(t, nItems, nGrps, w, false)`},
		},
	},
}

// violations lists what of r is present under root, one message per
// offending line or path, each naming the row and its PR.
func (r retired) violations(root string) ([]string, error) {
	var out []string
	report := func(what string) {
		out = append(out, fmt.Sprintf("%s (retired by PR %d): %s\n\t%s", r.name, r.pr, what, r.why))
	}
	for _, glob := range r.paths {
		found, err := filepath.Glob(filepath.Join(root, glob))
		if err != nil {
			return nil, err
		}
		for _, p := range found {
			report(p + " exists")
		}
	}
	res := make([]*regexp.Regexp, len(r.lines))
	for i, l := range r.lines {
		re, err := regexp.Compile(l.pattern)
		if err != nil {
			return nil, err
		}
		if !re.MatchString(l.example) {
			return nil, fmt.Errorf("pattern %q does not match its own example %q", l.pattern, l.example)
		}
		res[i] = re
	}
	for _, s := range r.scope {
		err := filepath.WalkDir(filepath.Join(root, s), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if name == "testdata" || (strings.HasPrefix(name, ".") && name != ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || (!r.tests && strings.HasSuffix(name, "_test.go")) {
				return nil
			}
			if path == filepath.Join(root, "retired_test.go") {
				return nil // the table itself
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for n, line := range strings.Split(string(src), "\n") {
				for _, re := range res {
					if re.MatchString(line) {
						report(fmt.Sprintf("%s:%d matches %q: %s", path, n+1, re, strings.TrimSpace(line)))
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func TestRetired(t *testing.T) {
	for _, r := range retiredTable {
		t.Run(fmt.Sprintf("%s/PR%d", r.name, r.pr), func(t *testing.T) {
			found, err := r.violations(".")
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range found {
				t.Error(v)
			}
		})
	}
}

// TestRetiredFindsWhatIsPutBack plants one retired identifier and one
// retired path in an otherwise clean tree: the rows that guard them
// must say so, by name and PR, and nothing else may fire — not on a
// test file outside a tests row, not under testdata/. (The empty files
// are there because a scope that no longer exists is an error: a guard
// over nothing guards nothing.)
func TestRetiredFindsWhatIsPutBack(t *testing.T) {
	root := t.TempDir()
	for path, src := range map[string]string{
		"internal/engine/expr.go":             "package engine\n\nfunc compileExprRow() {}\n",
		"internal/engine/expr_test.go":        "package engine\n\nvar _ = compileExprRow\n",
		"internal/engine/testdata/src/a/a.go": "package a\n\nfunc annotateTable() {}\n",
		"internal/mcdb/mcdb.go":               "package mcdb\n",
		"internal/parallel/parallel.go":       "package parallel\n",
		"internal/server/http.go":             "package server\n",
		"internal/engine/query.go":            "package engine\n",
		"internal/engine/plan/node.go":        "package plan\n",
		"internal/colstore/format.go":         "package colstore\n",
		"cmd/benchjson/main.go":               "package main\n",
		"cmd/experiments/main.go":             "package main\n",
		"internal/lint/load.go":               "package lint\n",
		"internal/indemics/sim.go":            "package indemics\n",
		"internal/experiments/extensions.go":  "package experiments\n",
		"examples/epidemic/main.go":           "package main\n",
		"internal/stats/stats.go":             "package stats\n",
		"modeldata.go":                        "package modeldata\n",
		"internal/mapreduce/mapreduce.go":     "package mapreduce\n",
		"internal/timeseries/align.go":        "package timeseries\n",
		"examples/splash/main.go":             "package main\n",
		"internal/rng/rng.go":                 "package rng\n",
	} {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for _, r := range retiredTable {
		found, err := r.violations(root)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, found...)
	}
	want := []struct{ row, names string }{
		{"One execution route (retired by PR 13)", filepath.Join("internal", "engine", "expr.go") + ":3 "},
		{"One harness (retired by PR 17)", filepath.Join("cmd", "benchjson") + " exists"},
	}
	if len(got) != len(want) {
		t.Fatalf("want %d violations, got %q", len(want), got)
	}
	for i, w := range want {
		if !strings.HasPrefix(got[i], w.row) || !strings.Contains(got[i], w.names) {
			t.Errorf("violation %q should start with %q and name %q", got[i], w.row, w.names)
		}
	}
}
