package assimilate_test

import (
	"fmt"

	"modeldata/internal/assimilate"
	"modeldata/internal/rng"
)

// ExampleNewFilter runs Algorithm 2 on a one-dimensional random walk
// observed through Gaussian noise.
func ExampleNewFilter() {
	model := assimilate.BootstrapModel[float64, float64](
		func(r *rng.Stream) float64 { return r.Normal(0, 1) },
		func(prev float64, r *rng.Stream) float64 { return prev + r.Normal(0, 0.3) },
		func(x, y float64) float64 {
			return rng.NormalDist{Mu: x, Sigma: 0.5}.LogPDF(y)
		},
	)
	f, err := assimilate.NewFilter(model, 2000, 7)
	if err != nil {
		panic(err)
	}
	// The hidden state sits near 1.0; three noisy observations arrive.
	for _, y := range []float64{0.9, 1.1, 1.0} {
		ps, err := f.Step(y)
		if err != nil {
			panic(err)
		}
		est := 0.0
		for _, p := range ps {
			est += p.W * p.X
		}
		fmt.Printf("posterior mean ≈ %.1f\n", est)
	}
	// Output:
	// posterior mean ≈ 0.7
	// posterior mean ≈ 0.9
	// posterior mean ≈ 1.0
}
