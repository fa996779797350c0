// Package stats provides the summary statistics used across the
// repository: means, variances, covariances, quantiles (including the
// tail-quantile estimation that MCDB-R uses for risk analysis),
// confidence intervals for Monte Carlo estimators, and kernel density
// estimation (used by the sensor-aware particle-filter proposal of
// §3.2).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"modeldata/internal/rng"
)

// ErrEmpty is returned when a statistic is requested of an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance of xs. It returns
// 0 for samples of size < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Covariance returns the unbiased sample covariance of paired samples.
// It panics on length mismatch and returns 0 for samples of size < 2.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("stats: Covariance length mismatch %d vs %d", len(xs), len(ys)))
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n-1)
}

// Quantile returns the p-quantile of xs using linear interpolation
// between order statistics (type-7, the R default). It returns ErrEmpty
// for an empty sample and an error for p outside [0, 1]. xs is not
// modified.
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: quantile p=%g outside [0, 1]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p), nil
}

// quantileSorted computes the type-7 quantile of an already-sorted
// sample.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Quantiles returns the quantiles of xs at each probability in ps with a
// single sort of the data.
func Quantiles(xs []float64, ps []float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 1 {
			return nil, fmt.Errorf("stats: quantile p=%g outside [0, 1]", p)
		}
		out[i] = quantileSorted(sorted, p)
	}
	return out, nil
}

// ExtremeQuantile estimates a tail quantile (p close to 0 or 1) by
// fitting a generalized Pareto distribution (GPD) to the exceedances
// over a high threshold, in the spirit of MCDB-R's risk analysis (§2.1,
// [5]). For a target p beyond the largest order statistics' reliable
// range, empirical quantiles are noisy; the tail fit extrapolates.
//
// The top k = 10% of the sample (at least 10 points) are the
// exceedances, and the threshold u is the largest point below them. The
// GPD's scale σ and shape ξ come from the probability-weighted moments
// of the excesses (Hosking & Wallis 1987), and the estimate solves
// P(X > q) = (k/n)·(1 + ξ(q − u)/σ)^(−1/ξ) = 1 − p, taking the
// exponential limit P(X > q) = (k/n)·exp(−(q − u)/σ) when ξ ≈ 0.
//
// For p in the bulk (threshold coverage), and when the fit degenerates
// (no excess over u, or a non-finite estimate), it falls back to the
// empirical quantile.
func ExtremeQuantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: quantile p=%g outside [0, 1]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := len(sorted)

	upper := p >= 0.5
	if !upper {
		// Mirror the sample so the target becomes an upper-tail problem.
		mirrored := make([]float64, n)
		for i, v := range sorted {
			mirrored[n-1-i] = -v
		}
		q, err := ExtremeQuantile(mirrored, 1-p)
		return -q, err
	}

	k := n / 10
	if k < 10 {
		k = 10
	}
	if k >= n {
		return quantileSorted(sorted, p), nil
	}
	tailProb := float64(k) / float64(n)
	if 1-p >= tailProb {
		// Bulk quantile: the empirical estimate is reliable.
		return quantileSorted(sorted, p), nil
	}
	u := sorted[n-k-1]
	// Sample PWMs of the ascending excesses y_(j), j = 1..k:
	// a0 = mean y, a1 = mean (1 − p_j)·y_(j) with p_j = (j − 0.35)/k.
	a0, a1 := 0.0, 0.0
	for j, x := range sorted[n-k:] {
		y := x - u
		a0 += y
		a1 += (1 - (float64(j)+0.65)/float64(k)) * y
	}
	a0 /= float64(k)
	a1 /= float64(k)
	d := a0 - 2*a1
	if !(a0 > 0 && d > 0) {
		return quantileSorted(sorted, p), nil
	}
	sigma := 2 * a0 * a1 / d
	xi := 2 - a0/d
	// logR = log(P(X > u | tail) / P(X > q)) > 0.
	logR := math.Log(tailProb / (1 - p))
	q := u + sigma*logR
	if math.Abs(xi) > 1e-9 {
		q = u + sigma/xi*math.Expm1(xi*logR)
	}
	if math.IsNaN(q) || math.IsInf(q, 0) {
		return quantileSorted(sorted, p), nil
	}
	return q, nil
}

// MeanCI returns the sample mean of xs together with a normal-theory
// confidence interval half-width at the given confidence level (e.g.
// 0.95). The level must lie in the open interval (0, 1); out-of-domain
// levels yield a 0 half-width rather than a quantile of a nonsense
// probability (level ≥ 1 would previously ask NormalQuantile for
// p ≥ 1 and return ±Inf or NaN silently). For n < 2 the half-width
// is 0.
func MeanCI(xs []float64, level float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	n := len(xs)
	if n < 2 || level <= 0 || level >= 1 {
		return mean, 0
	}
	z := rng.NormalQuantile(0.5 + level/2)
	halfWidth = z * StdDev(xs) / math.Sqrt(float64(n))
	return mean, halfWidth
}
