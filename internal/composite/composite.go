// Package composite implements a Splash-style composite-modeling
// platform (§2.2–2.3 of the paper): component simulation models are
// registered with metadata describing their input and output datasets,
// models are loosely coupled by exchanging datasets rather than by
// code-level integration, dataset mismatches between an upstream
// "source" and downstream "target" model are detected automatically
// from the metadata, and the needed data transformations (schema
// mapping and time alignment) are synthesized and applied at run time.
//
// The package also contains the result-caching (RC) optimization for
// stochastic composite models in series (rc.go), reproducing the
// asymptotic-efficiency analysis of §2.3.
package composite

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"modeldata/internal/engine"
	"modeldata/internal/rng"
	"modeldata/internal/timeseries"
)

// Common errors.
var (
	ErrDupModel   = errors.New("composite: model already registered")
	ErrNoModel    = errors.New("composite: no such model")
	ErrNoPort     = errors.New("composite: no such port")
	ErrMismatch   = errors.New("composite: unresolvable dataset mismatch")
	ErrCycle      = errors.New("composite: model graph has a cycle")
	ErrUnbound    = errors.New("composite: model input port is unbound")
	ErrPayload    = errors.New("composite: dataset payload does not match port kind")
	ErrDupConnect = errors.New("composite: input port already connected")
)

// Kind is the payload kind of a dataset port.
type Kind uint8

// Payload kinds.
const (
	KindScalar Kind = iota
	KindSeries
	KindTable
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindScalar:
		return "scalar"
	case KindSeries:
		return "series"
	case KindTable:
		return "table"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// PortSpec is the metadata a model contributor registers for one input
// or output dataset. Splash uses such metadata for drag-and-drop
// composition and automatic mismatch detection.
type PortSpec struct {
	Name string
	Kind Kind
	// TickDelta is the time-step granularity of a series port; 0 means
	// unspecified. Differing granularities trigger time alignment.
	TickDelta float64
	// Columns lists the column names of a table port; differing
	// column sets trigger schema mapping.
	Columns []string
	// Interp selects the interpolation used when this *input* port
	// needs finer data than the source provides.
	Interp timeseries.InterpMethod
	// Agg selects the aggregation used when this *input* port needs
	// coarser data than the source provides.
	Agg timeseries.AggKind
}

// Dataset is a payload flowing between models.
type Dataset struct {
	Name   string
	Kind   Kind
	Scalar float64
	Series *timeseries.Series
	Table  *engine.Table
}

// ScalarData wraps a scalar into a Dataset.
func ScalarData(name string, v float64) Dataset {
	return Dataset{Name: name, Kind: KindScalar, Scalar: v}
}

// SeriesData wraps a series into a Dataset.
func SeriesData(name string, s *timeseries.Series) Dataset {
	return Dataset{Name: name, Kind: KindSeries, Series: s}
}

// TableData wraps a table into a Dataset.
func TableData(name string, t *engine.Table) Dataset {
	return Dataset{Name: name, Kind: KindTable, Table: t}
}

// RunFunc executes a component model: it consumes the datasets bound to
// its input ports (keyed by port name) and produces one dataset per
// output port.
type RunFunc func(inputs map[string]Dataset, r *rng.Stream) (map[string]Dataset, error)

// Model is a registered component model.
type Model struct {
	Name    string
	Inputs  []PortSpec
	Outputs []PortSpec
	Run     RunFunc
	// Meta carries reusable performance statistics (e.g. the §2.3 cost
	// and variance estimates), keyed by statistic name. Splash stores
	// such numbers in the model's metadata so pilot-run costs amortize
	// across experiments.
	Meta map[string]float64
}

func (m *Model) port(specs []PortSpec, name string) (*PortSpec, error) {
	for i := range specs {
		if strings.EqualFold(specs[i].Name, name) {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q on model %q", ErrNoPort, name, m.Name)
}

// Transform converts a source dataset to the form a target port
// expects. Transformations are synthesized at Connect time and applied
// on every Monte Carlo repetition — which is why Splash worries about
// their efficiency.
type Transform func(Dataset) (Dataset, error)

// edge is one dataset connection in the composite graph.
type edge struct {
	fromModel, fromPort string
	toModel, toPort     string
	transform           Transform // nil means pass-through
}

// Composite is a DAG of models coupled by dataset exchange.
type Composite struct {
	models map[string]*Model
	order  []string // registration order, for deterministic iteration
	edges  []edge
	// external inputs bound to model input ports: key "model.port".
	inputs map[string]Dataset
}

// NewComposite returns an empty composite model.
func NewComposite() *Composite {
	return &Composite{
		models: make(map[string]*Model),
		inputs: make(map[string]Dataset),
	}
}

// Register adds a model to the composite.
func (c *Composite) Register(m *Model) error {
	key := strings.ToLower(m.Name)
	if _, ok := c.models[key]; ok {
		return fmt.Errorf("%w: %q", ErrDupModel, m.Name)
	}
	if m.Run == nil {
		return fmt.Errorf("composite: model %q has no Run function", m.Name)
	}
	c.models[key] = m
	c.order = append(c.order, key)
	return nil
}

// Bind supplies an external dataset to a model input port.
func (c *Composite) Bind(model, port string, ds Dataset) error {
	m, err := c.model(model)
	if err != nil {
		return err
	}
	spec, err := m.port(m.Inputs, port)
	if err != nil {
		return err
	}
	if ds.Kind != spec.Kind {
		return fmt.Errorf("%w: binding %s to %s port %s.%s", ErrPayload, ds.Kind, spec.Kind, model, port)
	}
	c.inputs[bindKey(model, port)] = ds
	return nil
}

func bindKey(model, port string) string {
	return strings.ToLower(model) + "." + strings.ToLower(port)
}

func (c *Composite) model(name string) (*Model, error) {
	m, ok := c.models[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoModel, name)
	}
	return m, nil
}

// Connect wires an output port of one model to an input port of
// another. Mismatches between the port metadata are detected here and a
// transformation is synthesized:
//
//   - series ports with different tick granularities get a time
//     alignment (aggregation or interpolation per the target's spec);
//   - table ports with different column sets get a schema mapping
//     (projection onto the target's columns; unmapped target columns
//     are an ErrMismatch);
//   - kind disagreements are ErrMismatch.
//
// It returns a description of the synthesized transformation ("" for a
// direct connection).
func (c *Composite) Connect(fromModel, fromPort, toModel, toPort string) (string, error) {
	src, err := c.model(fromModel)
	if err != nil {
		return "", err
	}
	dst, err := c.model(toModel)
	if err != nil {
		return "", err
	}
	srcSpec, err := src.port(src.Outputs, fromPort)
	if err != nil {
		return "", err
	}
	dstSpec, err := dst.port(dst.Inputs, toPort)
	if err != nil {
		return "", err
	}
	for _, e := range c.edges {
		if e.toModel == strings.ToLower(toModel) && e.toPort == strings.ToLower(toPort) {
			return "", fmt.Errorf("%w: %s.%s", ErrDupConnect, toModel, toPort)
		}
	}
	transform, desc, err := synthesizeTransform(srcSpec, dstSpec)
	if err != nil {
		return "", err
	}
	c.edges = append(c.edges, edge{
		fromModel: strings.ToLower(fromModel), fromPort: strings.ToLower(fromPort),
		toModel: strings.ToLower(toModel), toPort: strings.ToLower(toPort),
		transform: transform,
	})
	return desc, nil
}

// synthesizeTransform compiles the graphical transformation spec into
// runtime code (the Clio++/time-aligner step of §2.2).
func synthesizeTransform(src, dst *PortSpec) (Transform, string, error) {
	if src.Kind != dst.Kind {
		return nil, "", fmt.Errorf("%w: %s output vs %s input", ErrMismatch, src.Kind, dst.Kind)
	}
	switch src.Kind {
	case KindSeries:
		if src.TickDelta == 0 || dst.TickDelta == 0 || src.TickDelta == dst.TickDelta { // zero is the unset sentinel and equal ticks are set verbatim, both exact by construction
			return nil, "", nil
		}
		dstTick := dst.TickDelta
		method := dst.Interp
		agg := dst.Agg
		desc := "time-alignment: aggregation"
		if dstTick < src.TickDelta {
			desc = "time-alignment: interpolation (" + method.String() + ")"
		}
		return func(ds Dataset) (Dataset, error) {
			if ds.Series == nil {
				return ds, fmt.Errorf("%w: series dataset %q has nil payload", ErrPayload, ds.Name)
			}
			ticks := regrid(ds.Series, dstTick)
			aligned, _, err := timeseries.Align(ds.Series, ticks, method, agg)
			if err != nil {
				return ds, err
			}
			out := ds
			out.Series = aligned
			return out, nil
		}, desc, nil
	case KindTable:
		if len(dst.Columns) == 0 || equalFoldSlices(src.Columns, dst.Columns) {
			return nil, "", nil
		}
		srcSet := make(map[string]bool, len(src.Columns))
		for _, col := range src.Columns {
			srcSet[strings.ToLower(col)] = true
		}
		var missing []string
		for _, col := range dst.Columns {
			if !srcSet[strings.ToLower(col)] {
				missing = append(missing, col)
			}
		}
		if len(missing) > 0 {
			return nil, "", fmt.Errorf("%w: target columns %v not produced by source", ErrMismatch, missing)
		}
		cols := append([]string(nil), dst.Columns...)
		return func(ds Dataset) (Dataset, error) {
			if ds.Table == nil {
				return ds, fmt.Errorf("%w: table dataset %q has nil payload", ErrPayload, ds.Name)
			}
			proj, err := engine.From(ds.Table).Select(cols...).Run()
			if err != nil {
				return ds, err
			}
			out := ds
			out.Table = proj
			return out, nil
		}, "schema-mapping: project to " + strings.Join(cols, ","), nil
	default:
		return nil, "", nil
	}
}

// regrid builds target ticks at the given spacing across the series
// range.
func regrid(s *timeseries.Series, tick float64) []float64 {
	if s.Len() == 0 {
		return nil
	}
	lo := s.Points[0].T
	hi := s.Points[s.Len()-1].T
	var out []float64
	for t := lo; t <= hi+1e-12; t += tick {
		out = append(out, t)
	}
	return out
}

func equalFoldSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strings.EqualFold(a[i], b[i]) {
			return false
		}
	}
	return true
}

// topoOrder returns the models in a topological order of the dataset
// graph, or ErrCycle.
func (c *Composite) topoOrder() ([]string, error) {
	indeg := make(map[string]int, len(c.models))
	adj := make(map[string][]string)
	for _, k := range c.order {
		indeg[k] = 0
	}
	for _, e := range c.edges {
		adj[e.fromModel] = append(adj[e.fromModel], e.toModel)
		indeg[e.toModel]++
	}
	// Deterministic Kahn: ready set kept sorted by registration order.
	var ready []string
	for _, k := range c.order {
		if indeg[k] == 0 {
			ready = append(ready, k)
		}
	}
	var out []string
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		next := adj[n]
		sort.Strings(next)
		for _, m := range next {
			indeg[m]--
			if indeg[m] == 0 {
				ready = append(ready, m)
			}
		}
	}
	if len(out) != len(c.models) {
		return nil, ErrCycle
	}
	return out, nil
}

// Run executes the composite once: models run in topological order,
// edge transformations convert datasets between ports, and the map of
// every model's outputs (keyed "model.port") is returned.
func (c *Composite) Run(r *rng.Stream) (map[string]Dataset, error) {
	return c.RunWith(r, nil)
}

// RunWith executes the composite once like Run, with overrides taking
// precedence over Bind-supplied external inputs (keys as produced by
// bindKey: "model.port", lower-cased). Overrides do not mutate the
// composite, so concurrent RunWith calls with distinct overrides and
// streams are safe — this is what lets designed experiments evaluate
// design points in parallel.
func (c *Composite) RunWith(r *rng.Stream, overrides map[string]Dataset) (map[string]Dataset, error) {
	order, err := c.topoOrder()
	if err != nil {
		return nil, err
	}
	produced := make(map[string]Dataset) // "model.port" → dataset
	for _, mk := range order {
		m := c.models[mk]
		ins := make(map[string]Dataset, len(m.Inputs))
		for _, spec := range m.Inputs {
			key := bindKey(m.Name, spec.Name)
			if ds, ok := overrides[key]; ok {
				ins[strings.ToLower(spec.Name)] = ds
				continue
			}
			if ds, ok := c.inputs[key]; ok {
				ins[strings.ToLower(spec.Name)] = ds
				continue
			}
			found := false
			for _, e := range c.edges {
				if e.toModel != mk || !strings.EqualFold(e.toPort, spec.Name) {
					continue
				}
				ds, ok := produced[e.fromModel+"."+e.fromPort]
				if !ok {
					return nil, fmt.Errorf("composite: edge source %s.%s produced nothing", e.fromModel, e.fromPort)
				}
				if e.transform != nil {
					ds, err = e.transform(ds)
					if err != nil {
						return nil, fmt.Errorf("composite: transform into %s.%s: %w", m.Name, spec.Name, err)
					}
				}
				ins[strings.ToLower(spec.Name)] = ds
				found = true
				break
			}
			if !found {
				return nil, fmt.Errorf("%w: %s.%s", ErrUnbound, m.Name, spec.Name)
			}
		}
		outs, err := m.Run(ins, r.Split())
		if err != nil {
			return nil, fmt.Errorf("composite: model %q: %w", m.Name, err)
		}
		for _, spec := range m.Outputs {
			ds, ok := outs[strings.ToLower(spec.Name)]
			if !ok {
				// Try the exact-case key as a convenience.
				ds, ok = outs[spec.Name]
			}
			if !ok {
				return nil, fmt.Errorf("composite: model %q did not produce output %q", m.Name, spec.Name)
			}
			produced[mk+"."+strings.ToLower(spec.Name)] = ds
		}
	}
	return produced, nil
}

// Output fetches one dataset from a Run result.
func Output(results map[string]Dataset, model, port string) (Dataset, error) {
	ds, ok := results[bindKey(model, port)]
	if !ok {
		return Dataset{}, fmt.Errorf("%w: %s.%s", ErrNoPort, model, port)
	}
	return ds, nil
}
