// Scaling-model fits over BENCH_tables.json.
//
// The speedup tables sample each (app, implementation) pair at p = 2..32
// processors. This tool fits every sampled time series — total simulated
// time and each per-cell breakdown bucket — to the standard parallel-cost
// form
//
//     T(p) = c * p^a * log2(p)^b
//
// by least squares in log space (ln T = ln c + a ln p + b ln log2 p, 3x3
// normal equations with partial pivoting; b is dropped when the system is
// singular, e.g. with fewer than three sample points — the solver lives in
// bench/fit_model.hpp, shared with the unit tests). The exponents make
// the asymptotics legible at a glance: a ≈ -1 is perfect strong scaling,
// a ≈ 0 a serial bottleneck, b > 0 a tree/combining term like the barrier
// fan-in.
//
// The fitted total-time models are then compared pairwise per app: the
// first integer p at which the predicted ordering of two implementations
// flips is reported as the model's crossover point — e.g. where VC_sd's
// lower barrier cost overtakes LRC_d's cheaper acquires, beyond the p the
// tables actually sampled.
//
//   fit_scaling                         # reads BENCH_tables.json
//   fit_scaling --json=other.json --max-p=1024
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/fit_model.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace {

using vodsm::TextTable;
using vodsm::bench::fit::Fit;
using vodsm::bench::fit::fitSeries;
using vodsm::support::Json;

struct Sample {
  int procs = 0;
  // Bucket name -> seconds; "total" is sim_seconds, the rest come from the
  // cell's breakdown_seconds object.
  std::map<std::string, double> seconds;
};

// One (app, implementation) time series from the speedup tables.
struct Series {
  std::string app;
  std::string impl;
  std::vector<Sample> samples;  // sorted by procs
};

// "IS/VC_sd/16p" -> app, impl, procs. Returns false for malformed ids.
bool splitCellId(const std::string& id, std::string& app, std::string& impl,
                 int& procs) {
  const size_t s1 = id.find('/');
  const size_t s2 = id.rfind('/');
  if (s1 == std::string::npos || s2 == s1) return false;
  app = id.substr(0, s1);
  impl = id.substr(s1 + 1, s2 - s1 - 1);
  const std::string tail = id.substr(s2 + 1);
  if (tail.empty() || tail.back() != 'p') return false;
  procs = std::atoi(tail.c_str());
  return procs > 0;
}

std::string fmt(double v, int prec = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = "BENCH_tables.json";
  std::string validate_path;
  double max_err = 0.25;
  int max_p = 4096;
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0]
              << " [--json=PATH] [--max-p=N]"
                 " [--validate=SCALING.json [--max-err=F]]\n";
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      path = a.substr(7);
    } else if (a.rfind("--validate=", 0) == 0) {
      validate_path = a.substr(11);
    } else if (a.rfind("--max-err=", 0) == 0) {
      const std::string v = a.substr(10);
      char* end = nullptr;
      max_err = std::strtod(v.c_str(), &end);
      if (v.empty() || end != v.c_str() + v.size() || max_err <= 0) {
        std::cerr << a << ": --max-err needs a number > 0\n";
        return usage();
      }
    } else if (a.rfind("--max-p=", 0) == 0) {
      // atoi would silently turn a typo into 0; validate instead.
      const std::string v = a.substr(8);
      char* end = nullptr;
      const long n = std::strtol(v.c_str(), &end, 10);
      if (v.empty() || end != v.c_str() + v.size() || n < 2) {
        std::cerr << a << ": --max-p needs an integer >= 2\n";
        return usage();
      }
      max_p = static_cast<int>(n);
    } else {
      return usage();
    }
  }

  std::ifstream f(path);
  if (!f) {
    std::cerr << "cannot read " << path
              << " (run bench/table_suite first)\n";
    return 1;
  }
  std::stringstream buf;
  buf << f.rdbuf();

  Json doc = Json::parse(buf.str());

  // Collect the speedup-table grids; the stats tables sample only one p and
  // the "seq" baselines have no scaling to fit.
  std::map<std::pair<std::string, std::string>, Series> series;
  for (const Json& table : doc.at("tables").items()) {
    if (table.at("name").asString().find("speedup") == std::string::npos)
      continue;
    for (const Json& cell : table.at("cells").items()) {
      std::string app, impl;
      int procs = 0;
      if (!splitCellId(cell.at("id").asString(), app, impl, procs)) continue;
      if (impl == "seq") continue;
      Sample s;
      s.procs = procs;
      s.seconds["total"] = cell.at("sim_seconds").asNumber();
      if (const Json* b = cell.find("breakdown_seconds"))
        for (const auto& [name, v] : b->members())
          s.seconds[name] = v.asNumber();
      Series& sr = series[{app, impl}];
      sr.app = app;
      sr.impl = impl;
      sr.samples.push_back(std::move(s));
    }
  }
  if (series.empty()) {
    std::cerr << path << " has no speedup-table cells\n";
    return 1;
  }

  std::cout << "Scaling fits from " << path
            << "  (model: T(p) = c * p^a * log2(p)^b)\n";

  // app -> impl -> total fit, for the crossover scan.
  std::map<std::string, std::map<std::string, Fit>> totals;

  std::string cur_app;
  TextTable t;
  auto flush = [&] {
    if (!cur_app.empty()) t.print(std::cout);
  };
  for (auto& [key, sr] : series) {
    if (sr.app != cur_app) {
      flush();
      cur_app = sr.app;
      std::cout << "\n" << cur_app << "\n";
      t = TextTable();
      t.header({"impl", "bucket", "c (s)", "a", "b", "R^2", "pts"});
    }
    std::sort(sr.samples.begin(), sr.samples.end(),
              [](const Sample& x, const Sample& y) {
                return x.procs < y.procs;
              });
    // Every bucket name seen anywhere in this series, "total" first.
    std::vector<std::string> buckets = {"total"};
    for (const Sample& s : sr.samples)
      for (const auto& [name, v] : s.seconds)
        if (name != "total" &&
            std::find(buckets.begin(), buckets.end(), name) == buckets.end())
          buckets.push_back(name);
    for (const std::string& bucket : buckets) {
      // ln T needs T > 0; buckets a protocol never pays (e.g. acquire_wait
      // under pure barriers) are skipped rather than fitted through zeros.
      std::vector<std::pair<int, double>> pts;
      for (const Sample& s : sr.samples) {
        auto it = s.seconds.find(bucket);
        if (it != s.seconds.end() && it->second > 0)
          pts.emplace_back(s.procs, it->second);
      }
      if (pts.size() < 2) continue;
      const Fit fit = fitSeries(pts);
      if (!fit.ok) continue;
      if (bucket == "total") totals[sr.app][sr.impl] = fit;
      t.row({bucket == "total" ? sr.impl : "", bucket, fmt(fit.c, 4),
             fmt(fit.a), fmt(fit.b), fmt(fit.r2), std::to_string(fit.points)});
    }
  }
  flush();

  // Pairwise crossover scan on the fitted totals: first integer p where the
  // predicted ordering flips relative to the smallest sampled p.
  std::cout << "\nModel-predicted crossovers (p scanned up to " << max_p
            << "):\n";
  for (const auto& [app, impls] : totals) {
    std::vector<std::pair<std::string, Fit>> v(impls.begin(), impls.end());
    for (size_t i = 0; i < v.size(); ++i)
      for (size_t j = i + 1; j < v.size(); ++j) {
        const Fit& fa = v[i].second;
        const Fit& fb = v[j].second;
        // Curved models (b != 0) can cross more than once; report every
        // flip of the predicted ordering, not just the first.
        bool a_ahead = fa.eval(2) < fb.eval(2);
        bool crossed = false;
        for (int p = 3; p <= max_p; ++p) {
          if ((fa.eval(p) < fb.eval(p)) == a_ahead) continue;
          a_ahead = !a_ahead;
          crossed = true;
          const std::string& winner = a_ahead ? v[i].first : v[j].first;
          const Fit& wf = a_ahead ? fa : fb;
          const Fit& lf = a_ahead ? fb : fa;
          std::cout << "  " << app << ": " << winner
                    << " pulls ahead at p = " << p << " (predicted "
                    << fmt(wf.eval(p), 4) << " s vs " << fmt(lf.eval(p), 4)
                    << " s)\n";
        }
        if (!crossed) {
          const std::string& fast = a_ahead ? v[i].first : v[j].first;
          const std::string& slow = a_ahead ? v[j].first : v[i].first;
          std::cout << "  " << app << ": " << fast << " stays ahead of "
                    << slow << " through p = " << max_p << "\n";
        }
      }
  }

  // --validate: check the fits' extrapolations against a measured large-p
  // sweep (BENCH_scaling.json from bench/table11_scaling). Only cells whose
  // impl has a paper-grid series are comparable (the "_tree"/"_butterfly"
  // barrier columns have none, so the series lookup skips them), and only
  // p beyond the training grid tests extrapolation rather than
  // interpolation. The gate is on the median
  // relative error: congestion collapse is a regime change the power-law
  // form cannot follow (star LRC at 256p), so the collapse cell is shown
  // in the report without dragging the verdict.
  if (!validate_path.empty()) {
    std::ifstream vf(validate_path);
    if (!vf) {
      std::cerr << "cannot read " << validate_path << "\n";
      return 1;
    }
    std::stringstream vbuf;
    vbuf << vf.rdbuf();
    Json vdoc = Json::parse(vbuf.str());

    struct Row {
      std::string id;
      double measured, predicted, rel_err;
    };
    std::vector<Row> rows;
    for (const Json& table : vdoc.at("tables").items()) {
      for (const Json& cell : table.at("cells").items()) {
        std::string app, impl;
        int procs = 0;
        if (!splitCellId(cell.at("id").asString(), app, impl, procs)) continue;
        if (impl == "seq") continue;
        auto ai = totals.find(app);
        if (ai == totals.end()) continue;
        auto ii = ai->second.find(impl);
        if (ii == ai->second.end()) continue;
        auto si = series.find({app, impl});
        if (si == series.end()) continue;
        int train_max = 0;
        for (const Sample& s : si->second.samples)
          train_max = std::max(train_max, s.procs);
        if (procs <= train_max) continue;
        const double meas = cell.at("sim_seconds").asNumber();
        if (meas <= 0) continue;
        // Refit on the asymptotic tail of the grid (top octave, e.g.
        // {16, 24, 32} of a 2..32 sweep). The full-grid fit is dominated by
        // the small-p points where compute still shrinks ~1/p; the rising
        // communication terms only show their exponent at the top of the
        // grid, and extrapolation has to follow those.
        std::vector<std::pair<int, double>> tail;
        for (const Sample& s : si->second.samples)
          if (2 * s.procs >= train_max) {
            auto ts = s.seconds.find("total");
            if (ts != s.seconds.end() && ts->second > 0)
              tail.emplace_back(s.procs, ts->second);
          }
        Fit tail_fit = tail.size() >= 2 ? fitSeries(tail) : Fit{};
        const Fit& model = tail_fit.ok ? tail_fit : ii->second;
        const double pred = model.eval(procs);
        rows.push_back({cell.at("id").asString(), meas, pred,
                        std::abs(pred - meas) / meas});
      }
    }
    if (rows.empty()) {
      std::cerr << validate_path
                << " has no star cells beyond the fitted grid\n";
      return 1;
    }
    std::cout << "\nExtrapolation check against " << validate_path << ":\n";
    TextTable vt;
    vt.header({"cell", "measured (s)", "predicted (s)", "rel err"});
    std::vector<double> errs;
    for (const Row& r : rows) {
      vt.row({r.id, fmt(r.measured, 4), fmt(r.predicted, 4),
              fmt(r.rel_err * 100, 1) + "%"});
      errs.push_back(r.rel_err);
    }
    vt.print(std::cout);
    std::sort(errs.begin(), errs.end());
    const double median = errs.size() % 2
                              ? errs[errs.size() / 2]
                              : 0.5 * (errs[errs.size() / 2 - 1] +
                                       errs[errs.size() / 2]);
    std::cout << "median relative error " << fmt(median * 100, 1) << "% over "
              << errs.size() << " cells (gate: " << fmt(max_err * 100, 1)
              << "%)\n";
    if (median > max_err) {
      std::cerr << "extrapolation gate failed: median error "
                << fmt(median * 100, 1) << "% > " << fmt(max_err * 100, 1)
                << "%\n";
      return 1;
    }
  }
  return 0;
}
