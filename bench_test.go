package modeldata_test

// One benchmark per paper artifact: each BenchmarkF*/BenchmarkE* runs
// the registered experiment that regenerates the corresponding figure
// or quantitative claim, failing if the paper's qualitative shape does
// not hold. Micro-benchmarks follow for the substrate packages the
// repository benchmark (bench/) does not reach; engine, mcdb and
// parallel numbers are bench/ per-layer metrics (bench/README.md).

import (
	"context"
	"fmt"
	"math"
	"testing"

	"modeldata/internal/assimilate"
	"modeldata/internal/experiments"
	"modeldata/internal/linalg"
	"modeldata/internal/rng"
	"modeldata/internal/sgd"
	"modeldata/internal/timeseries"
	"modeldata/internal/wildfire"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(context.Background(), id, 20140622)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verdict {
			b.Fatalf("%s failed to reproduce:\n%s", id, res)
		}
	}
}

func BenchmarkF1Extrapolation(b *testing.B)       { benchExperiment(b, "F1") }
func BenchmarkF2ResultCaching(b *testing.B)       { benchExperiment(b, "F2") }
func BenchmarkF3FractionalFactorial(b *testing.B) { benchExperiment(b, "F3") }
func BenchmarkF4MainEffects(b *testing.B)         { benchExperiment(b, "F4") }
func BenchmarkF5LatinHypercube(b *testing.B)      { benchExperiment(b, "F5") }
func BenchmarkE1TupleBundles(b *testing.B)        { benchExperiment(b, "E1") }
func BenchmarkE2SimSQLChain(b *testing.B)         { benchExperiment(b, "E2") }
func BenchmarkE3SplineDSGD(b *testing.B)          { benchExperiment(b, "E3") }
func BenchmarkE4TimeAlignment(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5AlphaStar(b *testing.B)           { benchExperiment(b, "E5") }
func BenchmarkE6Indemics(b *testing.B)            { benchExperiment(b, "E6") }
func BenchmarkE7RangeQueries(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8MSM(b *testing.B)                 { benchExperiment(b, "E8") }
func BenchmarkE9ParticleFilter(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10Kriging(b *testing.B)            { benchExperiment(b, "E10") }
func BenchmarkE11DesignSizes(b *testing.B)        { benchExperiment(b, "E11") }
func BenchmarkE12Bifurcation(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13Gridfield(b *testing.B)          { benchExperiment(b, "E13") }
func BenchmarkE14GPScreening(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15PolicyOptimization(b *testing.B) { benchExperiment(b, "E15") }
func BenchmarkE16StochasticKriging(b *testing.B)  { benchExperiment(b, "E16") }
func BenchmarkE17DemandQueueRC(b *testing.B)      { benchExperiment(b, "E17") }
func BenchmarkA1KaczmarzStep(b *testing.B)        { benchExperiment(b, "A1") }
func BenchmarkA2CommonRandomNumbers(b *testing.B) { benchExperiment(b, "A2") }
func BenchmarkA3CyclingReuse(b *testing.B)        { benchExperiment(b, "A3") }
func BenchmarkA4SelfJoinParallel(b *testing.B)    { benchExperiment(b, "A4") }

// --- substrate micro-benchmarks ---

func BenchmarkThomasSolve(b *testing.B) {
	n := 100000
	tri := &linalg.Tridiagonal{
		Sub: make([]float64, n-1), Diag: make([]float64, n), Super: make([]float64, n-1),
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		tri.Diag[i] = 4
		d[i] = math.Sin(float64(i))
	}
	for i := 0; i < n-1; i++ {
		tri.Sub[i], tri.Super[i] = 1, 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tri.SolveThomas(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDSGDEpoch(b *testing.B) {
	n := 30000
	tri := &linalg.Tridiagonal{
		Sub: make([]float64, n-1), Diag: make([]float64, n), Super: make([]float64, n-1),
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		tri.Diag[i] = 4
		d[i] = math.Cos(float64(i) / 7)
	}
	for i := 0; i < n-1; i++ {
		tri.Sub[i], tri.Super[i] = 1, 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sgd.SolveDistributed(tri, d, sgd.Options{
			Epochs: 1, Kaczmarz: true, Seed: uint64(i), Workers: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSplineFitAndEval(b *testing.B) {
	n := 5000
	ts := make([]float64, n)
	vs := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i)
		vs[i] = math.Sin(float64(i) / 50)
	}
	s, err := timeseries.FromSlices("bench", ts, vs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, err := timeseries.NewSpline(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sp.At(1234.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParticleFilterStep(b *testing.B) {
	p := wildfire.Params{SpreadProb: 0.25, BurnSteps: 5, IntensityMean: 1, IntensityStd: 0.2}
	sm := wildfire.Sensors{Block: 4, Ambient: 20, FireTemp: 50, Noise: 5}
	init := func(r *rng.Stream) *wildfire.State {
		s, _ := wildfire.NewState(16, 16)
		_ = s.Ignite(8, 8, 1)
		return s
	}
	r := rng.New(3)
	truth := init(r)
	truth, err := wildfire.StepFire(truth, p, r)
	if err != nil {
		b.Fatal(err)
	}
	y := sm.Observe(truth, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := assimilate.NewFilter(wildfire.PriorModel(p, sm, init), 100, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Step(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRNGStream(b *testing.B) {
	r := rng.New(1)
	b.Run("Uint64", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink = r.Uint64()
		}
		_ = sink
	})
	b.Run("StdNormal", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			sink = r.StdNormal()
		}
		_ = sink
	})
	b.Run("Poisson50", func(b *testing.B) {
		var sink int
		for i := 0; i < b.N; i++ {
			sink = r.Poisson(50)
		}
		_ = sink
	})
}

// TestExperimentRegistry documents the facade's experiment listing.
func TestExperimentRegistry(t *testing.T) {
	ids := experiments.IDs()
	if got := fmt.Sprint(len(ids), " ", ids[0], " ", ids[len(ids)-1]); got != "26 F1 A4" {
		t.Fatalf("registry = %s", got)
	}
}
