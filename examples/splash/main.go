// Splash-style composite modeling (§2.2–2.3 + §4.2): two independently
// authored models — a fine-grained demand model and a coarse-grained
// clinic model — are loosely coupled by dataset exchange. The platform
// detects the timescale mismatch and synthesizes the alignment
// transformation, the experiment manager sweeps a factorial design over
// the unified parameter view, and the result-caching optimizer chooses
// how often to re-run the expensive upstream model.
//
// With -chaos, the demand→clinic alignment job additionally runs on the
// fault-tolerant MapReduce runtime under injected task crashes and
// straggler latency, demonstrating the Hadoop property the paper's
// Splash deployment relies on: tasks die and lag, the job's output does
// not change by a single bit. Which attempts fail is a function of the
// injectors' seeds, so the printed counters are fixed too.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"modeldata/internal/composite"
	"modeldata/internal/doe"
	"modeldata/internal/mapreduce"
	"modeldata/internal/parallel"
	"modeldata/internal/rng"
	"modeldata/internal/timeseries"
)

func main() {
	log.SetFlags(0)
	chaos := flag.Bool("chaos", false, "re-run the time-alignment job under injected crashes and latency")
	flag.Parse()
	if err := run(os.Stdout, *chaos); err != nil {
		log.Fatal(err)
	}
}

// run couples the two models, sweeps the factorial design, synthesizes
// an input file and sizes the result-caching study, printing each
// result to w; with chaos it also runs chaosAlignment.
func run(w io.Writer, chaos bool) error {
	// --- Model 1: hourly patient-demand model (tick = 1 hour). ---
	demand := &composite.Model{
		Name: "demand",
		Inputs: []composite.PortSpec{
			{Name: "base_rate", Kind: composite.KindScalar},
		},
		Outputs: []composite.PortSpec{
			{Name: "arrivals", Kind: composite.KindSeries, TickDelta: 1},
		},
		Run: func(in map[string]composite.Dataset, r *rng.Stream) (map[string]composite.Dataset, error) {
			rate := in["base_rate"].Scalar
			ts := make([]float64, 24*14)
			vs := make([]float64, len(ts))
			for i := range ts {
				ts[i] = float64(i)
				vs[i] = float64(r.Poisson(rate * diurnal(i%24)))
			}
			s, err := timeseries.FromSlices("arrivals", ts, vs)
			if err != nil {
				return nil, err
			}
			return map[string]composite.Dataset{"arrivals": composite.SeriesData("arrivals", s)}, nil
		},
	}

	// --- Model 2: daily clinic staffing model (tick = 24 hours). ---
	clinic := &composite.Model{
		Name: "clinic",
		Inputs: []composite.PortSpec{
			{Name: "load", Kind: composite.KindSeries, TickDelta: 24, Agg: timeseries.AggSum},
			{Name: "staff", Kind: composite.KindScalar},
		},
		Outputs: []composite.PortSpec{
			{Name: "overload", Kind: composite.KindScalar},
		},
		Run: func(in map[string]composite.Dataset, r *rng.Stream) (map[string]composite.Dataset, error) {
			capacityPerDay := in["staff"].Scalar * 20
			over := 0.0
			for _, p := range in["load"].Series.Points {
				if p.V > capacityPerDay {
					over += p.V - capacityPerDay
				}
			}
			return map[string]composite.Dataset{"overload": composite.ScalarData("overload", over)}, nil
		},
	}

	c := composite.NewComposite()
	if err := c.Register(demand); err != nil {
		return err
	}
	if err := c.Register(clinic); err != nil {
		return err
	}
	desc, err := c.Connect("demand", "arrivals", "clinic", "load")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "mismatch detected; synthesized transformation: %s\n\n", desc)

	// --- Experiment manager (§4.2): unified parameter view. ---
	mgr := composite.NewManager(c)
	if err := mgr.AddParameter("demand", "base_rate", 2, 6); err != nil {
		return err
	}
	if err := mgr.AddParameter("clinic", "staff", 2, 8); err != nil {
		return err
	}
	if err := mgr.SetOutput("clinic", "overload"); err != nil {
		return err
	}
	design, err := doe.FullFactorial(2)
	if err != nil {
		return err
	}
	responses, err := mgr.RunDesign(design.Points(), 42)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "2² factorial over (base_rate, staff):")
	for i, levels := range design.Runs {
		fmt.Fprintf(w, "  rate=%+d staff=%+d → weekly overload %.0f patients\n",
			levels[0], levels[1], responses[i])
	}
	effects, err := doe.MainEffects(design, responses)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "main effects: base_rate %+.0f, staff %+.0f\n\n",
		effects[0].Effect, effects[1].Effect)

	// --- Input-file synthesis (§4.2's templating mechanism). ---
	input, err := mgr.SynthesizeInput(
		"rate = ${demand.base_rate}\nstaff = ${clinic.staff}\n",
		[]float64{4, 5})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "synthesized model input file:\n%s\n", input)

	// --- Result caching (§2.3) for the Monte Carlo study. ---
	two := composite.TwoStage{
		M1: func(r *rng.Stream) float64 {
			// The expensive upstream model reduced to its scalar
			// summary (weekly arrivals).
			total := 0.0
			for i := 0; i < 24*14; i++ {
				total += float64(r.Poisson(4 * diurnal(i%24)))
			}
			return total
		},
		M2: func(y1 float64, r *rng.Stream) float64 {
			capacity := 5.0 * 20 * 14
			over := y1 - capacity + r.Normal(0, 20)
			if over < 0 {
				over = 0
			}
			return over
		},
		C1: 50, C2: 1,
	}
	stats, err := two.PilotEstimate(200, 7)
	if err != nil {
		return err
	}
	alpha := composite.OptimalAlpha(stats, 0.01)
	fmt.Fprintf(w, "pilot statistics: %v\n", stats)
	fmt.Fprintf(w, "optimal replication fraction α* = %.3f  (efficiency gain vs α=1: %.2f×)\n",
		alpha, composite.GAlpha(1, stats)/composite.GAlpha(alpha, stats))
	budgeted, err := two.RunBudgeted(5000, alpha, 11)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "budget 5000 work units: %d M1 runs reused across %d M2 runs; θ̂ = %.1f\n",
		budgeted.M1Runs, budgeted.M2Runs, budgeted.Theta)

	if chaos {
		return chaosAlignment(w)
	}
	return nil
}

// chaosAlignment re-runs a demand-curve interpolation job on the
// MapReduce runtime under a fault injector that crashes ~30% of task
// attempts and stalls ~20% of them, with a 6-retry budget, then
// verifies the output is bit-identical to the failure-free run and
// prints the job's counters to w.
func chaosAlignment(w io.Writer) error {
	fmt.Fprintln(w, "\n--- chaos mode: alignment under injected faults ---")
	r := rng.New(20140622)
	ts := make([]float64, 24*14)
	vs := make([]float64, len(ts))
	for i := range ts {
		ts[i] = float64(i)
		vs[i] = float64(r.Poisson(4 * diurnal(i%24)))
	}
	arrivals, err := timeseries.FromSlices("arrivals", ts, vs)
	if err != nil {
		return err
	}
	sp, err := timeseries.NewSpline(arrivals)
	if err != nil {
		return err
	}
	var targets []float64
	for t := 0.25; t < 24*14-1; t += 0.25 {
		targets = append(targets, t)
	}

	cfg := mapreduce.Config{Mappers: 8, Reducers: 4}
	clean, _, err := timeseries.ParallelInterpolateCtx(context.Background(), sp, targets, cfg)
	if err != nil {
		return err
	}
	st := parallel.NewStats()
	ctx := parallel.WithStats(context.Background(), st)
	ctx = parallel.WithRetryPolicy(ctx, parallel.RetryPolicy{MaxRetries: 6})
	ctx = parallel.WithFaultInjector(ctx, parallel.Chain{
		parallel.PanicInjector{Prob: 0.3, Seed: 7},
		parallel.LatencyInjector{Prob: 0.2, Delay: 2 * time.Millisecond, Seed: 8},
	})
	faulty, job, err := timeseries.ParallelInterpolateCtx(ctx, sp, targets, cfg)
	if err != nil {
		return err
	}
	for i, p := range faulty.Points {
		if p != clean.Points[i] {
			return fmt.Errorf("chaos run diverged at t=%v: %v vs %v", p.T, p.V, clean.Points[i].V)
		}
	}
	fmt.Fprintf(w, "job survived injected faults: %s\n", job)
	for _, line := range strings.Split(st.Registry().Snapshot().String(), "\n") {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintf(w, "output identical to failure-free run across %d aligned points ✓\n", len(faulty.Points))
	return nil
}

// diurnal shapes hourly demand: quiet nights, busy mid-day.
func diurnal(hour int) float64 {
	switch {
	case hour < 6:
		return 0.3
	case hour < 10:
		return 1.2
	case hour < 18:
		return 1.6
	default:
		return 0.8
	}
}
