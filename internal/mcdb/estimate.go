package mcdb

import (
	"fmt"

	"modeldata/internal/stats"
)

// Estimate summarizes Monte Carlo samples of a query result: the
// estimated expectation with a confidence interval, plus the sample
// moments an analyst asks MCDB for.
type Estimate struct {
	N         int
	Mean      float64
	Variance  float64
	CI95      float64 // half-width of the 95% CI for the mean
	Quantiles map[float64]float64
}

// Estimates are requested at these quantiles by default.
var defaultQuantiles = []float64{0.05, 0.25, 0.5, 0.75, 0.95}

// Summarize computes an Estimate from query-result samples.
func Summarize(samples []float64) (Estimate, error) {
	if len(samples) == 0 {
		return Estimate{}, ErrNoSamples
	}
	mean, hw := stats.MeanCI(samples, 0.95)
	qs, err := stats.Quantiles(samples, defaultQuantiles)
	if err != nil {
		return Estimate{}, err
	}
	qm := make(map[float64]float64, len(qs))
	for i, p := range defaultQuantiles {
		qm[p] = qs[i]
	}
	return Estimate{
		N:         len(samples),
		Mean:      mean,
		Variance:  stats.Variance(samples),
		CI95:      hw,
		Quantiles: qm,
	}, nil
}

func (e Estimate) String() string {
	return fmt.Sprintf("n=%d mean=%.6g ± %.3g (95%% CI), var=%.4g, median=%.6g",
		e.N, e.Mean, e.CI95, e.Variance, e.Quantiles[0.5])
}

// RiskQuantile estimates an extreme quantile of the query-result
// distribution (e.g. 0.99 value-at-risk), using the tail-fit estimator
// of MCDB-R (§2.1, [5]) rather than the raw order statistic.
func RiskQuantile(samples []float64, p float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	return stats.ExtremeQuantile(samples, p)
}

// ThresholdProbability estimates P(result > threshold) from the Monte
// Carlo samples.
func ThresholdProbability(samples []float64, threshold float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoSamples
	}
	hits := 0
	for _, v := range samples {
		if v > threshold {
			hits++
		}
	}
	return float64(hits) / float64(len(samples)), nil
}
