#include "model/model_set.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <utility>

#include "support/check.hpp"
#include "support/json_writer.hpp"

namespace vodsm::model {

namespace {

// Below this a bucket is treated as structurally zero rather than fitted —
// well under any real bucket value (the smallest measured bucket is idle
// at ~7e-4 s) but above accumulated float dust.
constexpr double kZeroBucketSeconds = 1e-12;

struct Series {
  std::string app;
  std::string impl;
  std::vector<const CellSample*> cells;  // id-sorted
};

std::vector<Series> groupSeries(const std::vector<CellSample>& cells) {
  std::vector<Series> series;
  for (const CellSample& c : cells) {
    if (c.axes.procs < 2 || c.impl == "seq" || c.sim_seconds <= 0) continue;
    Series* s = nullptr;
    for (Series& g : series)
      if (g.app == c.app && g.impl == c.impl) s = &g;
    if (s == nullptr) {
      series.push_back({c.app, c.impl, {}});
      s = &series.back();
    }
    s->cells.push_back(&c);
  }
  for (Series& s : series)
    std::sort(s.cells.begin(), s.cells.end(),
              [](const CellSample* a, const CellSample* b) {
                return a->id < b->id;
              });
  return series;
}

BucketModel fitBucket(const std::string& name,
                      const std::vector<const CellSample*>& train, int b) {
  BucketModel m;
  m.name = name;
  std::vector<FitSample> pts;
  for (const CellSample* c : train) {
    if (c->breakdown[b] > kZeroBucketSeconds)
      pts.push_back({c->axes, c->breakdown[b]});
    else
      ++m.dropped;
  }
  if (pts.empty()) {
    m.zero = true;
    return m;
  }
  m.fit = fitMulti(pts);
  VODSM_CHECK_MSG(m.fit.ok, "bucket fit failed: " + name);
  return m;
}

}  // namespace

double SeriesModel::predictTotal(const AxisPoint& x) const {
  if (!has_buckets) return total.eval(x);
  double node_sum = 0;
  for (const BucketModel& b : buckets) node_sum += b.eval(x);
  return node_sum / static_cast<double>(x.procs);
}

std::string SeriesModel::dominantTerm(const AxisPoint& x) const {
  if (!has_buckets) return "total: " + total.formula();
  const BucketModel* top = nullptr;
  double top_v = -1;
  for (const BucketModel& b : buckets) {
    const double v = b.eval(x);
    if (v > top_v) {
      top_v = v;
      top = &b;
    }
  }
  return top->name + ": " + top->fit.formula();
}

double ModelSet::medianHeldOutRelErr() const {
  std::vector<double> errs;
  for (const CellEval& e : evals)
    if (e.held_out) errs.push_back(e.rel_err);
  if (errs.empty()) return -1;
  std::sort(errs.begin(), errs.end());
  return errs[(errs.size() - 1) / 2];  // lower median
}

ModelSet buildModelSet(const std::vector<CellSample>& cells,
                       int holdout_every) {
  ModelSet set;
  set.holdout_every = holdout_every;
  for (const Series& g : groupSeries(cells)) {
    std::vector<const CellSample*> train;
    for (size_t i = 0; i < g.cells.size(); ++i) {
      const bool held =
          holdout_every > 0 &&
          i % static_cast<size_t>(holdout_every) ==
              static_cast<size_t>(holdout_every) - 1;
      if (!held) train.push_back(g.cells[i]);
    }
    if (train.empty()) continue;

    SeriesModel m;
    m.app = g.app;
    m.impl = g.impl;
    m.train_points = static_cast<int>(train.size());

    std::vector<FitSample> totals;
    for (const CellSample* c : train)
      totals.push_back({c->axes, c->sim_seconds});
    m.total = fitMulti(totals);

    m.has_buckets = std::all_of(
        train.begin(), train.end(),
        [](const CellSample* c) { return c->has_breakdown; });
    if (m.has_buckets)
      for (int b = 0; b < kBucketCount; ++b)
        m.buckets.push_back(fitBucket(kBucketName[b], train, b));
    if (!m.ok()) continue;

    for (size_t i = 0; i < g.cells.size(); ++i) {
      const CellSample* c = g.cells[i];
      CellEval e;
      e.id = c->id;
      e.measured = c->sim_seconds;
      e.predicted = m.predictTotal(c->axes);
      e.rel_err = std::fabs(e.predicted / e.measured - 1.0);
      e.held_out = holdout_every > 0 &&
                   i % static_cast<size_t>(holdout_every) ==
                       static_cast<size_t>(holdout_every) - 1;
      e.note = m.dominantTerm(c->axes);
      set.evals.push_back(std::move(e));
    }
    set.series.push_back(std::move(m));
  }
  return set;
}

ExtrapolationCheck checkExtrapolation(const std::vector<CellSample>& train,
                                      const std::vector<CellSample>& probes) {
  std::vector<CellSample> reference;
  for (const CellSample& c : train)
    if (!c.axes.explicit_axes) reference.push_back(c);

  struct TailFit {
    int max_p = 0;
    MultiFit fit;
  };
  std::map<std::pair<std::string, std::string>, TailFit> fits;
  for (const Series& g : groupSeries(reference)) {
    TailFit& t = fits[{g.app, g.impl}];
    for (const CellSample* c : g.cells)
      t.max_p = std::max(t.max_p, c->axes.procs);
    // The full-grid fit is dominated by small p, where compute still
    // shrinks ~1/p; extrapolation has to follow the top octave instead.
    std::vector<FitSample> tail;
    for (const CellSample* c : g.cells)
      if (2 * c->axes.procs >= t.max_p)
        tail.push_back({c->axes, c->sim_seconds});
    // log2(p) is dropped when it cannot be identified: always with two
    // points (not left to the solver's pivot threshold), and when the
    // system is singular, e.g. a duplicated p.
    if (tail.size() < 3 ||
        !fitMask(tail, (1u << kLnP) | (1u << kLnLog2P), t.fit))
      fitMask(tail, 1u << kLnP, t.fit);
  }

  ExtrapolationCheck out;
  std::vector<double> errs;
  for (const CellSample& c : probes) {
    const auto it = fits.find({c.app, c.impl});
    if (it == fits.end() || !it->second.fit.ok || c.axes.explicit_axes ||
        c.axes.procs <= it->second.max_p || c.sim_seconds <= 0)
      continue;
    CellEval e;
    e.id = c.id;
    e.measured = c.sim_seconds;
    e.predicted = it->second.fit.eval(c.axes);
    e.rel_err = std::fabs(e.predicted / e.measured - 1.0);
    errs.push_back(e.rel_err);
    out.cells.push_back(std::move(e));
  }
  if (!errs.empty()) {
    std::sort(errs.begin(), errs.end());
    const size_t n = errs.size();
    out.median_rel_err = 0.5 * (errs[(n - 1) / 2] + errs[n / 2]);
  }
  return out;
}

namespace {

void writeFit(support::JsonWriter& w, const MultiFit& f) {
  w.beginObject();
  w.key("ok").value(f.ok);
  w.key("c").value(f.c, "%.17g");
  w.key("mask").value(static_cast<int>(f.mask));
  w.key("exponents").beginObject();
  for (int r = 0; r < kRegressorCount; ++r)
    if (f.mask & (1u << r)) w.key(kRegressorTerm[r]).value(f.exp[r], "%.17g");
  w.endObject();
  w.key("r2").value(f.r2, "%.6f");
  w.key("loo_rel_err").value(f.loo_rel_err, "%.6f");
  w.key("points").value(f.points);
  w.key("formula").value(f.formula());
  w.endObject();
}

}  // namespace

void writeModelJson(std::ostream& os, const ModelSet& set) {
  support::JsonWriter w(os);
  w.beginObject();
  w.key("kind").value("vodsm_model_set");
  w.key("holdout_every").value(set.holdout_every);
  w.key("series").beginArray();
  for (const SeriesModel& m : set.series) {
    w.beginObject();
    w.key("app").value(m.app);
    w.key("impl").value(m.impl);
    w.key("train_points").value(m.train_points);
    w.key("composed").value(m.has_buckets);
    w.key("total");
    writeFit(w, m.total);
    if (m.has_buckets) {
      w.key("buckets").beginArray();
      for (const BucketModel& b : m.buckets) {
        w.beginObject();
        w.key("name").value(b.name);
        w.key("zero").value(b.zero);
        w.key("dropped").value(b.dropped);
        if (!b.zero) {
          w.key("fit");
          writeFit(w, b.fit);
        }
        w.endObject();
      }
      w.endArray();
    }
    w.endObject();
  }
  w.endArray();
  w.key("evals").beginArray();
  for (const CellEval& e : set.evals) {
    w.beginObject();
    w.key("id").value(e.id);
    w.key("measured").value(e.measured, "%.6f");
    w.key("predicted").value(e.predicted, "%.6f");
    w.key("rel_err").value(e.rel_err, "%.6f");
    w.key("held_out").value(e.held_out);
    w.key("note").value(e.note);
    w.endObject();
  }
  w.endArray();
  const double med = set.medianHeldOutRelErr();
  if (med >= 0) w.key("median_held_out_rel_err").value(med, "%.6f");
  w.endObject();
  os << '\n';
}

}  // namespace vodsm::model
