// Multi-axis least-squares fitter with cross-validated model selection.
//
// Fits the multiplicative normal form over the axes the benchmark suite
// sweeps (see model/axes.hpp); the single-axis T(p) = c * p^a * log2(p)^b
// is the candidate {p, log2(p)}, which the extrapolation check
// (model/model_set.hpp) fits with fitMask(). A candidate model is a
// subset of the five regressors; fitMulti() enumerates every subset whose
// regressors actually vary in the data (32 candidates at most), fits each
// by least squares in log space, and selects by LEAVE-ONE-OUT relative
// error — not raw residual — so a term only survives if it helps predict
// points the fit has not seen. Ties (within a strict numerical margin) go
// to the candidate with fewer terms, which makes selection deterministic
// and makes noise-free synthetic data recover its exact generating subset.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "model/axes.hpp"

namespace vodsm::model {

struct FitSample {
  AxisPoint axes;
  double value = 0;  // must be > 0 (the fit runs in log space)
};

struct MultiFit {
  double c = 0;                                 // multiplicative constant
  std::array<double, kRegressorCount> exp{};    // 0 for absent terms
  uint32_t mask = 0;                            // bit r set = term r used
  double r2 = 0;                                // in log space
  double loo_rel_err = -1;  // mean |pred/actual - 1| over LOO folds; < 0
                            // when no fold was computable
  int points = 0;
  bool ok = false;

  double eval(const AxisPoint& x) const;
  // Human-readable term, e.g. "0.0288 * p^1.705 * log2(p)^0.412".
  std::string formula() const;
};

// Least-squares fit of the fixed candidate `mask` in log space. Returns
// false (out.ok = false) when the normal equations are singular. All
// samples must have value > 0.
bool fitMask(const std::vector<FitSample>& pts, uint32_t mask,
             MultiFit& out);

// Mean leave-one-out relative error of candidate `mask`: each sample is
// held out in turn, the candidate refitted on the rest, and
// |pred/actual - 1| averaged. Returns -1 when any fold is unsolvable
// (too few points or a fold collapses a regressor's variation).
double loocvRelErr(const std::vector<FitSample>& pts, uint32_t mask);

// Model selection: every subset of the regressors that vary in `pts`,
// scored by loocvRelErr (falling back to in-sample residual when no
// candidate has a computable LOO error), fewest-terms tie-break.
MultiFit fitMulti(const std::vector<FitSample>& pts);

}  // namespace vodsm::model
