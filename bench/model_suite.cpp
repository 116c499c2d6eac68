// Compositional analytic performance models over BENCH_tables.json.
//
// Fits one model per (app, implementation) series: the total simulated
// time plus — where the suite recorded breakdowns — one model per runtime
// bucket, each over the axes the suite sweeps (p, problem size, bandwidth,
// loss; see src/model/). The per-bucket fits compose into the series'
// total prediction (they partition p * T, so the composed total is their
// sum over p, exact by construction), and model selection is by
// leave-one-out cross-validated error, not raw residual.
//
//   model_suite                          # fit + per-series report
//   model_suite --model=model.json       # write the fitted-model JSON
//   model_suite --extrap=models.txt      # Extra-P text export
//   model_suite --crossval=3 --tol=0.15  # hold out every 3rd cell, FAIL
//                                        # (exit 1) when the median
//                                        # held-out rel. error exceeds tol
//   model_suite --validate=BENCH_scaling.json --max-err=0.25
//                                        # refit each series' top octave
//                                        # on p alone and predict the
//                                        # measured cells beyond the grid;
//                                        # FAIL when the median rel. error
//                                        # exceeds max-err (default 0.25)
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "model/extrap.hpp"
#include "model/model_set.hpp"
#include "model/table_data.hpp"
#include "support/table.hpp"

namespace {

using vodsm::TextTable;
using namespace vodsm::model;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--json=PATH] [--model=OUT.json] [--extrap=OUT.txt]"
               " [--crossval=K] [--tol=X]"
               " [--validate=SCALING.json [--max-err=F]]\n";
  return 2;
}

std::string fmt(double v, int prec = 3) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(prec) << v;
  return os.str();
}

std::string fitCols(const MultiFit& f) {
  return f.formula() + "  (R^2 " + fmt(f.r2) +
         (f.loo_rel_err >= 0 ? ", LOO " + fmt(f.loo_rel_err) : "") + ", " +
         std::to_string(f.points) + " pts)";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_tables.json";
  std::string model_path;
  std::string extrap_path;
  std::string validate_path;
  int crossval = 0;
  double tol = 0.15;
  double max_err = 0.25;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto bad = [&] {
      std::cerr << a << ": invalid value\n";
      std::exit(usage(argv[0]));
    };
    // The whole token must parse, and to a number > 0 (NaN is rejected).
    const auto positive = [&](size_t prefix) {
      const std::string v = a.substr(prefix);
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (v.empty() || end != v.c_str() + v.size() || !(d > 0)) bad();
      return d;
    };
    // An integer k >= 2: a fraction or a value past INT_MAX would silently
    // hold out some other number of cells, or none.
    const auto holdout = [&](size_t prefix) {
      const std::string v = a.substr(prefix);
      char* end = nullptr;
      errno = 0;
      const long k = std::strtol(v.c_str(), &end, 10);
      if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE ||
          k < 2 || k > INT_MAX)
        bad();
      return static_cast<int>(k);
    };
    if (a.rfind("--json=", 0) == 0) json_path = a.substr(7);
    else if (a.rfind("--model=", 0) == 0) model_path = a.substr(8);
    else if (a.rfind("--extrap=", 0) == 0) extrap_path = a.substr(9);
    else if (a.rfind("--validate=", 0) == 0) validate_path = a.substr(11);
    else if (a.rfind("--crossval=", 0) == 0) crossval = holdout(11);
    else if (a.rfind("--tol=", 0) == 0) tol = positive(6);
    else if (a.rfind("--max-err=", 0) == 0) max_err = positive(10);
    else return usage(argv[0]);
  }

  try {
    const std::vector<CellSample> cells = loadTableCellsFile(json_path);
    const ModelSet set = buildModelSet(cells, crossval);
    if (set.series.empty()) {
      std::cerr << "model_suite: no fittable series in " << json_path << "\n";
      return 1;
    }

    std::cout << "Analytic models from " << json_path << " ("
              << set.series.size() << " series";
    if (crossval > 0)
      std::cout << ", holding out 1 cell in " << crossval;
    std::cout << ")\n";
    for (const SeriesModel& m : set.series) {
      std::cout << "\n" << m.app << "/" << m.impl << "  ("
                << m.train_points << " training cells"
                << (m.has_buckets ? ", composed from buckets" : "") << ")\n";
      TextTable t;
      t.header({"bucket", "model"});
      t.row({"total", m.has_buckets ? "sum(buckets) / p" : ""});
      if (!m.has_buckets || !m.total.ok)
        t.row({"(direct)", fitCols(m.total)});
      for (const BucketModel& b : m.buckets)
        t.row({b.name, b.zero ? "0 (never paid)" : fitCols(b.fit)});
      t.print(std::cout);
    }

    // Per-cell prediction quality; on a crossval run only held-out cells
    // are scored for the gate.
    std::cout << "\nPrediction errors (|pred/actual - 1|):\n";
    TextTable et;
    et.header({"cell", "measured", "predicted", "rel err", "held out"});
    for (const CellEval& e : set.evals)
      et.row({e.id, fmt(e.measured, 6), fmt(e.predicted, 6),
              fmt(e.rel_err * 100, 1) + "%", e.held_out ? "yes" : ""});
    et.print(std::cout);

    if (!model_path.empty()) {
      std::ofstream f(model_path, std::ios::binary);
      if (!f) {
        std::cerr << "cannot write " << model_path << "\n";
        return 1;
      }
      writeModelJson(f, set);
      std::cout << "\nwrote " << model_path << "\n";
    }
    if (!extrap_path.empty()) {
      std::ofstream f(extrap_path, std::ios::binary);
      if (!f) {
        std::cerr << "cannot write " << extrap_path << "\n";
        return 1;
      }
      writeExtrap(f, cells);
      std::cout << "wrote " << extrap_path << " (Extra-P text format)\n";
    }

    if (crossval > 0) {
      const double med = set.medianHeldOutRelErr();
      if (med < 0) {
        std::cerr << "model_suite: crossval held out no cells\n";
        return 1;
      }
      std::cout << "\ncrossval: median held-out relative error "
                << fmt(med * 100, 1) << "% (tolerance " << fmt(tol * 100, 1)
                << "%)\n";
      if (med > tol) {
        std::cerr << "model_suite: FAIL — models no longer predict held-out "
                     "cells within tolerance\n";
        return 1;
      }
    }

    // Congestion collapse is a regime change no power law follows (star
    // LRC_d at 256p), so the gate is on the median: the collapse cells stay
    // in the report without deciding the verdict.
    if (!validate_path.empty()) {
      const ExtrapolationCheck check =
          checkExtrapolation(cells, loadTableCellsFile(validate_path));
      if (check.cells.empty()) {
        std::cerr << "model_suite: " << validate_path
                  << " has no cells beyond a fitted series' grid\n";
        return 1;
      }
      std::cout << "\nExtrapolation check against " << validate_path
                << ":\n";
      TextTable vt;
      vt.header({"cell", "measured (s)", "predicted (s)", "rel err"});
      for (const CellEval& e : check.cells)
        vt.row({e.id, fmt(e.measured, 4), fmt(e.predicted, 4),
                fmt(e.rel_err * 100, 1) + "%"});
      vt.print(std::cout);
      std::cout << "median relative error "
                << fmt(check.median_rel_err * 100, 1) << "% over "
                << check.cells.size() << " cells (gate: "
                << fmt(max_err * 100, 1) << "%)\n";
      if (check.median_rel_err > max_err) {
        std::cerr << "model_suite: FAIL — extrapolation median error "
                  << fmt(check.median_rel_err * 100, 1) << "% > "
                  << fmt(max_err * 100, 1) << "%\n";
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "model_suite: " << e.what() << "\n";
    return 1;
  }
}
