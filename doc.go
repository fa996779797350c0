// Package modeldata is a Go reproduction of Peter J. Haas,
// "Model-Data Ecosystems: Challenges, Tools, and Trends" (PODS 2014).
//
// The paper surveys the emerging interplay between information
// management and stochastic simulation; this module implements every
// system the paper describes, organized as one package per subsystem
// under internal/ (see DESIGN.md for the full inventory):
//
//   - internal/mcdb, internal/simsql — Monte Carlo databases: VG
//     functions, tuple-bundle execution, database-valued Markov chains,
//     and the ABS-step-as-self-join (§2.1);
//   - internal/timeseries, internal/sgd, internal/mapreduce — Splash-
//     style data harmonization: time alignment, natural cubic splines,
//     and stratified distributed SGD with shuffle accounting (§2.2);
//   - internal/composite — loose model coupling with automatic mismatch
//     detection, plus the result-caching optimizer g(α), α* (§2.3);
//   - internal/indemics, internal/pdesmas — querying data during a
//     simulation: SQL-specified epidemic interventions and synchronized
//     range queries over unsynchronized agent processes (§2.4);
//   - internal/calibrate — MSM with GᵀWG objectives, Nelder-Mead,
//     grid, and kriging-surrogate search (§3.1);
//   - internal/assimilate, internal/wildfire — sequential Monte Carlo,
//     particle filtering (Algorithm 2), and wildfire data assimilation
//     with the sensor-aware KDE proposal (§3.2);
//   - internal/metamodel, internal/doe — polynomial and Gaussian-
//     process metamodels, factorial and Latin hypercube designs, and
//     sequential bifurcation screening (§4);
//   - internal/engine, internal/rng, internal/linalg, internal/stats,
//     internal/gridfield — the substrates everything rests on.
//
// This root package is a thin facade over internal/experiments: every
// figure and quantitative claim of the paper is a registered,
// reproducible experiment. Run them all with:
//
//	go run ./cmd/experiments
//
// or individually via Run with functional options:
//
//	res, err := modeldata.Run(ctx, "E1",
//		modeldata.WithSeed(1),
//		modeldata.WithWorkers(8),
//		modeldata.WithProgress(func(done, total int) { ... }))
//
// Every Monte Carlo hot loop fans out over internal/parallel, a
// deterministic runtime whose results are bit-identical to sequential
// execution at any worker count (one pre-split random substream per
// iteration index — see DESIGN.md). The benchmarks in bench_test.go
// regenerate one experiment per paper artifact; serving and storage
// performance is measured by the repository benchmark in bench/.
package modeldata

import "modeldata/internal/experiments"

// ExperimentResult is the outcome of one reproduced figure or claim.
type ExperimentResult = experiments.Result

// Row is one reported number of an ExperimentResult.
type Row = experiments.Row

// ExperimentIDs lists the registered experiments (F1–F5 for the
// paper's figures, E1–E13 for its quantitative claims) in display
// order.
func ExperimentIDs() []string { return experiments.IDs() }
