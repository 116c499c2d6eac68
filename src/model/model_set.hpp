// Compositional per-series models over BENCH_tables.json.
//
// One SeriesModel per (app, impl) pair: a direct fit of total simulated
// seconds plus — when the series records breakdowns — one fit per runtime
// bucket (compute, barrier_wait, acquire_wait, fault_diff, idle). The
// buckets are node-summed seconds and provably partition p * T, so the
// composed total prediction is sum(bucket predictions) / p — the bucket
// models sum to the total model EXACTLY by construction, and any residual
// against measurement is genuine model error, not bookkeeping slack.
//
// buildModelSet() optionally holds out every k-th cell of each series
// (deterministic by id order) and evaluates predictions on the held-out
// cells — the cross-validation gate. With no holdout it fits on everything
// and records in-sample errors.
//
// checkExtrapolation() is the other gate: a p-only refit of each series'
// top octave, scored on measured cells beyond the training grid.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "model/fit.hpp"
#include "model/table_data.hpp"

namespace vodsm::model {

struct BucketModel {
  std::string name;
  bool zero = false;  // every training sample was (near) zero
  int dropped = 0;    // non-positive samples excluded from the log fit
  MultiFit fit;       // unused when zero
  double eval(const AxisPoint& x) const { return zero ? 0 : fit.eval(x); }
};

struct SeriesModel {
  std::string app;
  std::string impl;
  int train_points = 0;
  bool has_buckets = false;  // composed model available
  std::vector<BucketModel> buckets;  // kBucketCount entries when composed
  MultiFit total;                    // direct fit of sim_seconds

  bool ok() const { return has_buckets || total.ok; }
  // Composed prediction when buckets exist (sum / p), direct fit otherwise.
  double predictTotal(const AxisPoint& x) const;
  // The dominant model term at `x` — e.g. "fault_diff: 0.137 * p^0.998" —
  // for eval notes.
  std::string dominantTerm(const AxisPoint& x) const;
};

struct CellEval {
  std::string id;
  double measured = 0;
  double predicted = 0;
  double rel_err = 0;  // |predicted / measured - 1|
  bool held_out = false;
  std::string note;  // dominant model term
};

struct ModelSet {
  int holdout_every = 0;  // 0 = fitted on every cell
  std::vector<SeriesModel> series;
  std::vector<CellEval> evals;

  // Lower median of held-out relative errors; -1 when nothing was held
  // out. The cross-validation gate compares this against its tolerance.
  double medianHeldOutRelErr() const;
};

// Fits one model per (app, impl) series. `holdout_every` = k withholds
// every k-th cell (id order) of each series from fitting and marks its
// eval held_out; 0 fits on all cells. Cells with p < 2, impl "seq", or a
// non-positive total are excluded entirely (the log-space family cannot
// represent them).
ModelSet buildModelSet(const std::vector<CellSample>& cells,
                       int holdout_every);

// Deterministic JSON serialization (coefficients as %.17g so they
// round-trip; seconds/errors as %.6f). Byte-stable for a given ModelSet.
void writeModelJson(std::ostream& os, const ModelSet& set);

// Extrapolation of the p-only family beyond the training grid.
struct ExtrapolationCheck {
  std::vector<CellEval> cells;  // compared probe cells, in probe order
  // Median of the cells' rel_err, the mean of the two middle values for an
  // even count; -1 when no cell was comparable.
  double median_rel_err = -1;
};

// Fits T(p) = c * p^a * log2(p)^b to each (app, impl) series of `train`'s
// reference-configuration cells (no explicit axes, impl != "seq", p >= 2)
// over the series' top octave — the p with 2p >= its max p, where the
// communication terms show their exponent — dropping log2(p) when fewer
// than three tail points or a collinear system cannot identify it. Each
// reference `probes` cell of a fitted series with p beyond that max p is
// predicted; probes of other series (e.g. "_tree" impls) and in-grid
// probes are skipped, as is a series whose tail has one distinct p.
ExtrapolationCheck checkExtrapolation(const std::vector<CellSample>& train,
                                      const std::vector<CellSample>& probes);

}  // namespace vodsm::model
