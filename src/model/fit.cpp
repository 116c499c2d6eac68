#include "model/fit.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

namespace vodsm::model {

namespace {

// Dense Gaussian elimination with partial pivoting over the n x n system
// encoded as n rows of n + 1 (last column is the right-hand side). Returns
// false when a pivot falls below 1e-12 — the system is singular (collinear
// regressors or too few points) and the caller must drop a term instead of
// inventing coefficients.
bool solveNormal(std::vector<std::vector<double>> m, std::vector<double>& x) {
  const size_t n = m.size();
  for (size_t col = 0; col < n; ++col) {
    size_t piv = col;
    for (size_t r = col + 1; r < n; ++r)
      if (std::fabs(m[r][col]) > std::fabs(m[piv][col])) piv = r;
    if (std::fabs(m[piv][col]) < 1e-12) return false;
    std::swap(m[col], m[piv]);
    for (size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const double f = m[r][col] / m[col][col];
      for (size_t k = col; k <= n; ++k) m[r][k] -= f * m[col][k];
    }
  }
  x.resize(n);
  for (size_t i = 0; i < n; ++i) x[i] = m[i][n] / m[i][i];
  return true;
}

// Regressor indices selected by `mask`, in fixed order.
std::vector<int> maskTerms(uint32_t mask) {
  std::vector<int> terms;
  for (int r = 0; r < kRegressorCount; ++r)
    if (mask & (1u << r)) terms.push_back(r);
  return terms;
}

// Normal equations for ln T = lnc + sum coef_j * regressor_j over `pts`.
bool solveLogLs(const std::vector<FitSample>& pts,
                const std::vector<int>& terms, std::vector<double>& coef) {
  const size_t dims = terms.size() + 1;
  std::vector<std::vector<double>> m(dims, std::vector<double>(dims + 1, 0));
  std::vector<double> row(dims);
  for (const FitSample& s : pts) {
    row[0] = 1.0;
    for (size_t j = 0; j < terms.size(); ++j)
      row[j + 1] = regressor(s.axes, terms[j]);
    const double y = std::log(s.value);
    for (size_t r = 0; r < dims; ++r) {
      for (size_t c = 0; c < dims; ++c) m[r][c] += row[r] * row[c];
      m[r][dims] += row[r] * y;
    }
  }
  return solveNormal(std::move(m), coef);
}

double predictLog(const std::vector<double>& coef,
                  const std::vector<int>& terms, const AxisPoint& x) {
  double y = coef[0];
  for (size_t j = 0; j < terms.size(); ++j)
    y += coef[j + 1] * regressor(x, terms[j]);
  return y;
}

// True when regressor `r` takes at least two distinct values over `pts` —
// a constant regressor is collinear with the intercept and can never be
// identified.
bool varies(const std::vector<FitSample>& pts, int r) {
  if (pts.empty()) return false;
  const double first = regressor(pts.front().axes, r);
  for (const FitSample& s : pts)
    if (std::fabs(regressor(s.axes, r) - first) > 1e-9) return true;
  return false;
}

}  // namespace

double MultiFit::eval(const AxisPoint& x) const {
  double lnf = 0;
  for (int r = 0; r < kRegressorCount; ++r)
    if (mask & (1u << r)) lnf += exp[r] * regressor(x, r);
  return c * std::exp(lnf);
}

std::string MultiFit::formula() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4g", c);
  std::string s = buf;
  for (int r = 0; r < kRegressorCount; ++r) {
    if (!(mask & (1u << r))) continue;
    std::snprintf(buf, sizeof(buf), " * %s^%.3f", kRegressorTerm[r], exp[r]);
    s += buf;
  }
  return s;
}

bool fitMask(const std::vector<FitSample>& pts, uint32_t mask,
             MultiFit& out) {
  out = MultiFit{};
  out.mask = mask;
  out.points = static_cast<int>(pts.size());
  if (pts.empty()) return false;
  const std::vector<int> terms = maskTerms(mask);
  std::vector<double> coef;
  if (!solveLogLs(pts, terms, coef)) return false;
  out.c = std::exp(coef[0]);
  for (size_t j = 0; j < terms.size(); ++j) out.exp[terms[j]] = coef[j + 1];
  out.ok = true;

  double mean = 0;
  for (const FitSample& s : pts) mean += std::log(s.value);
  mean /= static_cast<double>(pts.size());
  double ssr = 0, sst = 0;
  for (const FitSample& s : pts) {
    const double d = std::log(s.value) - predictLog(coef, terms, s.axes);
    ssr += d * d;
    const double e = std::log(s.value) - mean;
    sst += e * e;
  }
  out.r2 = sst > 0 ? 1.0 - ssr / sst : 1.0;
  return true;
}

double loocvRelErr(const std::vector<FitSample>& pts, uint32_t mask) {
  const std::vector<int> terms = maskTerms(mask);
  if (pts.size() < terms.size() + 2) return -1;  // nothing left to predict
  double err = 0;
  std::vector<FitSample> train;
  train.reserve(pts.size() - 1);
  for (size_t i = 0; i < pts.size(); ++i) {
    train.clear();
    for (size_t j = 0; j < pts.size(); ++j)
      if (j != i) train.push_back(pts[j]);
    std::vector<double> coef;
    if (!solveLogLs(train, terms, coef)) return -1;
    const double pred = std::exp(predictLog(coef, terms, pts[i].axes));
    err += std::fabs(pred / pts[i].value - 1.0);
  }
  return err / static_cast<double>(pts.size());
}

MultiFit fitMulti(const std::vector<FitSample>& pts) {
  // Candidate masks over the regressors that vary, ordered by term count
  // (then numerically) so the fewest-terms candidate wins ties.
  uint32_t usable = 0;
  for (int r = 0; r < kRegressorCount; ++r)
    if (varies(pts, r)) usable |= 1u << r;
  std::vector<uint32_t> candidates;
  for (int bits = 0; bits <= kRegressorCount; ++bits)
    for (uint32_t mask = 0; mask < (1u << kRegressorCount); ++mask)
      if ((mask & ~usable) == 0 && __builtin_popcount(mask) == bits)
        candidates.push_back(mask);

  MultiFit best;
  double best_loo = std::numeric_limits<double>::infinity();
  double best_rss = std::numeric_limits<double>::infinity();
  bool best_has_loo = false;
  for (uint32_t mask : candidates) {
    MultiFit fit;
    if (!fitMask(pts, mask, fit)) continue;
    const double loo = loocvRelErr(pts, mask);
    fit.loo_rel_err = loo;
    // A candidate only replaces the incumbent when strictly better beyond
    // a numerical margin; LOO-scored candidates always beat residual-only
    // ones (selection by generalization, not by in-sample fit).
    auto better = [](double cand, double best_v) {
      return cand < best_v - std::max(1e-12, 1e-9 * best_v);
    };
    if (loo >= 0) {
      if (!best_has_loo || better(loo, best_loo)) {
        best = fit;
        best_loo = loo;
        best_has_loo = true;
      }
    } else if (!best_has_loo) {
      const double rss = (1.0 - fit.r2);  // monotone in residual
      if (!best.ok || better(rss, best_rss)) {
        best = fit;
        best_rss = rss;
      }
    }
  }
  return best;
}

}  // namespace vodsm::model
