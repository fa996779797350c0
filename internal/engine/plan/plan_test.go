package plan

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// fakeCat is a hand-filled Catalog for optimizer tests.
type fakeCat struct {
	rows []int64
	cols []map[string]ColStats
}

func (c *fakeCat) ScanRows(scan int) int64 {
	if scan < 0 || scan >= len(c.rows) {
		return 0
	}
	return c.rows[scan]
}

func (c *fakeCat) ColStats(scan int, col string) (ColStats, bool) {
	if scan < 0 || scan >= len(c.cols) || c.cols[scan] == nil {
		return ColStats{}, false
	}
	cs, ok := c.cols[scan][strings.ToLower(col)]
	return cs, ok
}

func TestExprString(t *testing.T) {
	e := And{
		L: Or{
			L: Cmp{Op: ">", Col: "val", Val: FloatLit(1.5)},
			R: Between{Col: "id", Lo: IntLit(3), Hi: IntLit(9)},
		},
		R: Not{E: Cmp{Op: "=", Col: "tag", Val: StringLit("it's")}},
	}
	want := "((val > 1.5 or id between 3 and 9) and not tag = 'it''s')"
	if got := e.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestColumnsAndConjuncts(t *testing.T) {
	e := And{
		L: And{
			L: Cmp{Op: "=", Col: "a", Val: IntLit(1)},
			R: Cmp{Op: ">", Col: "B", Val: IntLit(2)},
		},
		R: Cmp{Op: "<", Col: "a", Val: IntLit(9)},
	}
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "B" {
		t.Fatalf("Columns = %v", cols)
	}
	cj := Conjuncts(e)
	if len(cj) != 3 {
		t.Fatalf("Conjuncts = %d, want 3", len(cj))
	}
	if cj[0].String() != "a = 1" || cj[2].String() != "a < 9" {
		t.Fatalf("conjunct order wrong: %v", cj)
	}
}

func TestRenameCols(t *testing.T) {
	e := Or{
		L: Cmp{Op: "=", Col: "x", Val: IntLit(1)},
		R: Not{E: Between{Col: "y", Lo: IntLit(0), Hi: IntLit(5)}},
	}
	r := RenameCols(e, func(c string) string { return "t." + c })
	want := "(t.x = 1 or not t.y between 0 and 5)"
	if got := r.String(); got != want {
		t.Fatalf("renamed = %q, want %q", got, want)
	}
	// Original untouched (Exprs are values).
	if strings.Contains(e.String(), "t.") {
		t.Fatalf("RenameCols mutated its input: %s", e)
	}
}

// sampleTree builds a plan exercising every node kind and every Expr
// form, including literals JSON cannot natively hold (NaN, ±Inf).
func sampleTree() *Tree {
	scanA := &Node{Kind: KindScan, Table: "events", Alias: "e", Rows: 10000, Cols: []string{"id", "val"}}
	filt := &Node{Kind: KindFilter, Input: scanA, Pred: And{
		L: Cmp{Op: ">=", Col: "val", Val: FloatLit(math.Inf(-1))},
		R: Or{
			L: Between{Col: "id", Lo: IntLit(10), Hi: IntLit(20)},
			R: Not{E: Cmp{Op: "<>", Col: "val", Val: FloatLit(3)}},
		},
	}}
	scanB := &Node{Kind: KindScan, Table: "users", Alias: "u", Rows: 64}
	join := &Node{
		Kind: KindJoin, Left: filt, Right: scanB,
		LeftCol: "e.uid", RightCol: "u.id", EstRows: 156.25,
	}
	agg := &Node{Kind: KindAggregate, Input: join, Keys: []string{"u.name"},
		Aggs: []AggSpec{{Fn: "count"}, {Fn: "sum", Col: "val", As: "total"}}}
	srt := &Node{Kind: KindSort, Input: agg, Col: "total", Desc: true}
	lim := &Node{Kind: KindLimit, Input: srt, N: 5}
	op := &Node{Kind: KindOpaque, Input: lim, Op: "extend rank"}
	return &Tree{Root: op}
}

// sampleJSON is sampleTree's encoding: kind-tagged nodes and
// expressions, literal payloads as strings (so -Inf survives), and no
// empty fields.
const sampleJSON = `{"kind":"opaque","op":"extend rank","input":{"kind":"limit","n":5,"input":{"kind":"sort","col":"total","desc":true,` +
	`"input":{"kind":"aggregate","keys":["u.name"],"aggs":[{"fn":"count"},{"fn":"sum","col":"val","as":"total"}],` +
	`"input":{"kind":"join","left_col":"e.uid","right_col":"u.id","est_rows":156.25,` +
	`"left":{"kind":"filter","pred":{"kind":"and","l":{"kind":"cmp","op":"\u003e=","col":"val","val":{"kind":"float","v":"-Inf"}},` +
	`"r":{"kind":"or","l":{"kind":"between","col":"id","lo":{"kind":"int","v":"10"},"hi":{"kind":"int","v":"20"}},` +
	`"r":{"kind":"not","l":{"kind":"cmp","op":"\u003c\u003e","col":"val","val":{"kind":"float","v":"3"}}}}},` +
	`"input":{"kind":"scan","table":"events","alias":"e","cols":["id","val"],"rows":10000}},` +
	`"right":{"kind":"scan","table":"users","alias":"u","rows":64}}}}}}`

// TestTreeJSONRoundTrip pins the encoding byte for byte and reads it
// back through encoding/json's generic decoder, which is how a client
// of EXPLAIN JSON sees it.
func TestTreeJSONRoundTrip(t *testing.T) {
	data, err := sampleTree().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != sampleJSON {
		t.Fatalf("encoding changed:\n%s\nwant\n%s", data, sampleJSON)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"input", "input", "input", "input", "left", "pred", "l", "val"} {
		doc = doc[k].(map[string]any)
	}
	if doc["v"] != "-Inf" {
		t.Fatalf("the -Inf literal decoded as %v", doc)
	}
}

func TestTreeTextDeterministic(t *testing.T) {
	a, b := sampleTree().Text(), sampleTree().Text()
	if a != b {
		t.Fatal("Text() not deterministic")
	}
	for _, want := range []string{
		"opaque extend rank",
		"limit 5",
		"sort total desc",
		"aggregate keys=[u.name] aggs=[count(*), sum(val) as total]",
		"join e.uid = u.id est_rows=156.25",
		"scan e (events) rows=10000 cols=[id,val]",
		"scan u (users) rows=64",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("Text() missing %q:\n%s", want, a)
		}
	}
}

func TestSelectivity(t *testing.T) {
	cat := &fakeCat{
		rows: []int64{1000},
		cols: []map[string]ColStats{{
			"gid": {NDV: 50, Min: 0, Max: 49, Numeric: true},
			"val": {NDV: 1000, Min: 0, Max: 100, Numeric: true},
		}},
	}
	if got := Selectivity(cat, 0, Cmp{Op: "=", Col: "gid", Val: IntLit(7)}); got != 0.02 {
		t.Fatalf("eq sel = %v, want 0.02", got)
	}
	if got := Selectivity(cat, 0, Cmp{Op: ">", Col: "val", Val: FloatLit(75)}); got != 0.25 {
		t.Fatalf("range sel = %v, want 0.25", got)
	}
	if got := Selectivity(cat, 0, Between{Col: "val", Lo: FloatLit(0), Hi: FloatLit(200)}); got != 1 {
		t.Fatalf("clamped between sel = %v, want 1", got)
	}
	if got := Selectivity(cat, 0, Cmp{Op: "=", Col: "nostats", Val: IntLit(1)}); got != 0.1 {
		t.Fatalf("no-stats eq sel = %v, want 0.1", got)
	}
	and := And{
		L: Cmp{Op: "=", Col: "gid", Val: IntLit(7)},
		R: Cmp{Op: ">", Col: "val", Val: FloatLit(75)},
	}
	if got := Selectivity(cat, 0, and); got != 0.02*0.25 {
		t.Fatalf("and sel = %v", got)
	}
	if got := Selectivity(cat, 0, Between{Col: "nostats", Lo: IntLit(0), Hi: IntLit(1)}); got != defaultSel {
		t.Fatalf("no-stats between sel = %v, want %v", got, defaultSel)
	}
}

func TestJoinCard(t *testing.T) {
	if got := JoinCard(1000, 50, 50, 50); got != 1000 {
		t.Fatalf("JoinCard = %v, want 1000", got)
	}
	if got := JoinCard(10, 10, 0, 0); got != 100 {
		t.Fatalf("JoinCard with zero NDVs = %v, want 100", got)
	}
}

// starRegion is a 3-table star: a big fact scan joined to a selective
// tiny dimension (written second) and a larger one (written first).
// Cost-based ordering should take the tiny join before the medium one.
func starRegion() (*fakeCat, *RegionSpec) {
	cat := &fakeCat{
		rows: []int64{100000, 512, 4},
		cols: []map[string]ColStats{
			{
				"gid": {NDV: 512, Min: 0, Max: 511, Numeric: true},
				"tag": {NDV: 1000},
			},
			{"gid": {NDV: 512, Min: 0, Max: 511, Numeric: true}},
			{"tag": {NDV: 4}},
		},
	}
	region := &RegionSpec{
		Scans: []ScanSpec{
			{Table: "fact", Alias: "fact", Rows: 100000},
			{Table: "med", Alias: "med", Rows: 512},
			{Table: "tiny", Alias: "tiny", Rows: 4},
		},
		Joins: []JoinSpec{
			{Left: 0, LeftCol: "gid", RightCol: "gid"},
			{Left: 0, LeftCol: "tag", RightCol: "tag"},
		},
	}
	return cat, region
}

func TestChooseReordersStar(t *testing.T) {
	cat, region := starRegion()
	c := Choose(cat, region)
	if c == nil {
		t.Fatal("Choose returned nil")
	}
	if !c.Reordered {
		t.Fatalf("expected reorder, got order %v", c.Order)
	}
	// The tiny join (scan 2) must execute before the med join (scan 1).
	if c.Steps[0].RightScan != 2 || c.Steps[1].RightScan != 1 {
		t.Fatalf("step scans = [%d %d], want [2 1]", c.Steps[0].RightScan, c.Steps[1].RightScan)
	}
	w := WrittenOrder(cat, region)
	if w == nil {
		t.Fatal("WrittenOrder returned nil")
	}
	if w.Reordered {
		t.Fatal("WrittenOrder must not report reordering")
	}
	if !(c.Cost < w.Cost) {
		t.Fatalf("chosen cost %v not below written cost %v", c.Cost, w.Cost)
	}
}

func TestChooseDeterministic(t *testing.T) {
	cat, region := starRegion()
	a, b := Choose(cat, region), Choose(cat, region)
	if a.Cost != b.Cost {
		t.Fatal("Choose cost not deterministic")
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("Choose order not deterministic: %v vs %v", a.Order, b.Order)
		}
	}
}

func TestWrittenOrderIsWritten(t *testing.T) {
	cat, region := starRegion()
	w := WrittenOrder(cat, region)
	for i, s := range w.Order {
		if s != i {
			t.Fatalf("WrittenOrder order = %v", w.Order)
		}
	}
	for j, st := range w.Steps {
		if st.LeftScan != region.Joins[j].Left || st.RightScan != j+1 {
			t.Fatalf("step %d = %+v", j, st)
		}
	}
}

func TestBuildTreePushedFilters(t *testing.T) {
	cat, region := starRegion()
	region.Filters = []FilterSpec{
		{Scan: 0, Pred: Cmp{Op: ">", Col: "val", Val: FloatLit(10)}},
	}
	region.Post = []Expr{Cmp{Op: "=", Col: "fact.gid", Val: IntLit(3)}}
	c := Choose(cat, region)
	root := BuildTree(region, c)
	// Root is the post filter; below it joins; the pushed filter sits
	// directly above the fact scan.
	if root.Kind != KindFilter || root.Pred.String() != "fact.gid = 3" {
		t.Fatalf("root = %s", root.line())
	}
	text := (&Tree{Root: root}).Text()
	idxFilter := strings.Index(text, "filter val > 10")
	idxScan := strings.Index(text, "scan fact")
	idxJoin := strings.Index(text, "join ")
	if idxFilter < 0 || idxScan < 0 || idxJoin < 0 {
		t.Fatalf("missing nodes:\n%s", text)
	}
	if !(idxJoin < idxFilter && idxFilter < idxScan) {
		t.Fatalf("pushed filter not between join and scan:\n%s", text)
	}
}
