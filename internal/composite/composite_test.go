package composite

import (
	"errors"
	"math"
	"strings"
	"testing"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
	"modeldata/internal/timeseries"
)

// demandModel emits a fine-grained series (tick 1) of demand values.
func demandModel() *Model {
	return &Model{
		Name:    "demand",
		Outputs: []PortSpec{{Name: "arrivals", Kind: KindSeries, TickDelta: 1}},
		Run: func(inputs map[string]Dataset, r *rng.Stream) (map[string]Dataset, error) {
			ts := make([]float64, 100)
			vs := make([]float64, 100)
			for i := range ts {
				ts[i] = float64(i)
				vs[i] = 10 + r.Normal(0, 1)
			}
			s, err := timeseries.FromSlices("arrivals", ts, vs)
			if err != nil {
				return nil, err
			}
			return map[string]Dataset{"arrivals": SeriesData("arrivals", s)}, nil
		},
	}
}

// queueModel consumes a coarse series (tick 10) and emits the mean as a
// scalar.
func queueModel() *Model {
	return &Model{
		Name: "queue",
		Inputs: []PortSpec{{
			Name: "load", Kind: KindSeries, TickDelta: 10, Agg: timeseries.AggMean,
		}},
		Outputs: []PortSpec{{Name: "wait", Kind: KindScalar}},
		Run: func(inputs map[string]Dataset, r *rng.Stream) (map[string]Dataset, error) {
			s := inputs["load"].Series
			sum := 0.0
			for _, p := range s.Points {
				sum += p.V
			}
			return map[string]Dataset{"wait": ScalarData("wait", sum/float64(s.Len()))}, nil
		},
	}
}

func TestCompositeSeriesAlignment(t *testing.T) {
	c := NewComposite()
	if err := c.Register(demandModel()); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(queueModel()); err != nil {
		t.Fatal(err)
	}
	desc, err := c.Connect("demand", "arrivals", "queue", "load")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "time-alignment") {
		t.Fatalf("transform desc = %q", desc)
	}
	results, err := c.RunWith(rng.New(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Output(results, "queue", "wait")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.Scalar-10) > 1 {
		t.Fatalf("mean wait = %g, want ≈ 10", out.Scalar)
	}
}

func TestCompositeSchemaMapping(t *testing.T) {
	producer := &Model{
		Name: "census",
		Outputs: []PortSpec{{
			Name: "people", Kind: KindTable,
			Columns: []string{"pid", "age", "income"},
		}},
		Run: func(_ map[string]Dataset, r *rng.Stream) (map[string]Dataset, error) {
			tbl := engine.MustNewTable("people", engine.Schema{
				{Name: "pid", Type: engine.TypeInt},
				{Name: "age", Type: engine.TypeInt},
				{Name: "income", Type: engine.TypeFloat},
			})
			tbl.MustInsert(engine.Int(1), engine.Int(30), engine.Float(100))
			return map[string]Dataset{"people": {Name: "people", Table: tbl}}, nil
		},
	}
	consumer := &Model{
		Name: "epi",
		Inputs: []PortSpec{{
			Name: "pop", Kind: KindTable, Columns: []string{"pid", "age"},
		}},
		Outputs: []PortSpec{{Name: "n", Kind: KindScalar}},
		Run: func(inputs map[string]Dataset, r *rng.Stream) (map[string]Dataset, error) {
			tbl := inputs["pop"].Table
			if len(tbl.Schema) != 2 {
				return nil, errors.New("schema mapping not applied")
			}
			return map[string]Dataset{"n": ScalarData("n", float64(tbl.Len()))}, nil
		},
	}
	c := NewComposite()
	if err := c.Register(producer); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(consumer); err != nil {
		t.Fatal(err)
	}
	desc, err := c.Connect("census", "people", "epi", "pop")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "schema-mapping") {
		t.Fatalf("desc = %q", desc)
	}
	results, err := c.RunWith(rng.New(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := Output(results, "epi", "n")
	if out.Scalar != 1 {
		t.Fatalf("n = %g", out.Scalar)
	}
}

func TestConnectMismatchErrors(t *testing.T) {
	a := &Model{
		Name:    "a",
		Outputs: []PortSpec{{Name: "o", Kind: KindScalar}},
		Run:     func(map[string]Dataset, *rng.Stream) (map[string]Dataset, error) { return nil, nil },
	}
	b := &Model{
		Name:   "b",
		Inputs: []PortSpec{{Name: "i", Kind: KindSeries}},
		Run:    func(map[string]Dataset, *rng.Stream) (map[string]Dataset, error) { return nil, nil },
	}
	c := NewComposite()
	if err := c.Register(a); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(b); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connect("a", "o", "b", "i"); !errors.Is(err, ErrMismatch) {
		t.Fatalf("kind mismatch: got %v", err)
	}
	if _, err := c.Connect("a", "nope", "b", "i"); !errors.Is(err, ErrNoPort) {
		t.Fatalf("bad port: got %v", err)
	}
	if _, err := c.Connect("zzz", "o", "b", "i"); !errors.Is(err, ErrNoModel) {
		t.Fatalf("bad model: got %v", err)
	}
}

func TestConnectUnmappableColumns(t *testing.T) {
	src := &Model{
		Name:    "s",
		Outputs: []PortSpec{{Name: "o", Kind: KindTable, Columns: []string{"x"}}},
		Run:     func(map[string]Dataset, *rng.Stream) (map[string]Dataset, error) { return nil, nil },
	}
	dst := &Model{
		Name:   "d",
		Inputs: []PortSpec{{Name: "i", Kind: KindTable, Columns: []string{"x", "y"}}},
		Run:    func(map[string]Dataset, *rng.Stream) (map[string]Dataset, error) { return nil, nil },
	}
	c := NewComposite()
	if err := c.Register(src); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(dst); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connect("s", "o", "d", "i"); !errors.Is(err, ErrMismatch) {
		t.Fatalf("got %v", err)
	}
}

func TestRegisterErrors(t *testing.T) {
	c := NewComposite()
	m := demandModel()
	if err := c.Register(m); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(demandModel()); !errors.Is(err, ErrDupModel) {
		t.Fatalf("got %v", err)
	}
	if err := c.Register(&Model{Name: "norun"}); err == nil {
		t.Fatal("nil Run accepted")
	}
}

func TestUnboundInput(t *testing.T) {
	c := NewComposite()
	if err := c.Register(queueModel()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunWith(rng.New(1), nil); !errors.Is(err, ErrUnbound) {
		t.Fatalf("got %v", err)
	}
}

func TestCycleDetection(t *testing.T) {
	mk := func(name string) *Model {
		return &Model{
			Name:    name,
			Inputs:  []PortSpec{{Name: "i", Kind: KindScalar}},
			Outputs: []PortSpec{{Name: "o", Kind: KindScalar}},
			Run: func(map[string]Dataset, *rng.Stream) (map[string]Dataset, error) {
				return map[string]Dataset{"o": ScalarData("o", 0)}, nil
			},
		}
	}
	c := NewComposite()
	if err := c.Register(mk("m1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(mk("m2")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connect("m1", "o", "m2", "i"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connect("m2", "o", "m1", "i"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunWith(rng.New(1), nil); !errors.Is(err, ErrCycle) {
		t.Fatalf("got %v", err)
	}
}

func TestDuplicateConnect(t *testing.T) {
	c := NewComposite()
	if err := c.Register(demandModel()); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(queueModel()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connect("demand", "arrivals", "queue", "load"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Connect("demand", "arrivals", "queue", "load"); !errors.Is(err, ErrDupConnect) {
		t.Fatalf("got %v", err)
	}
}
