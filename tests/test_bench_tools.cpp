// Unit tests for the bench-layer analysis tools:
//
//  * src/model — the multi-axis fitter must recover a generating model's
//    exact regressor subset from noise-free data, its leave-one-out score
//    must match hand-computed folds, the composed per-bucket models must
//    sum to the total model at EVERY axis point (including on a real traced
//    run, whose buckets provably partition p * T), and the model JSON /
//    Extra-P exports must be byte-deterministic.
//  * model::checkExtrapolation (model_suite --validate) — the top-octave
//    refit must recover a known T(p) = c * p^a * log2(p)^b exactly, fall
//    back to b = 0 with two tail points or a duplicated p, skip rather than
//    invent a prediction when the tail has one distinct p, skip probes it
//    has no series for or that sit inside the grid, and take the mean of
//    the middle two errors as an even count's median.
//  * bench/diff_compare.hpp — the bench_diff regression gate must compare
//    simulated fields exactly while stripping the host-shape keys ("jobs",
//    the "host" metadata object, and the "axes" coordinate record), so a
//    baseline written before those records existed still gates a current
//    file that has them; a host timing beyond its tolerance is a
//    host-timing failure, never simulated drift of its cell.
//  * bench/tables.hpp — writeTablesJson escapes the --faults spec, so a
//    record with control characters in it still parses.
//  * bench/table_common.hpp — parseArgs must reject a processor count
//    below one with the usage and exit status 2, before any cell runs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "apps/is.hpp"
#include "bench/diff_compare.hpp"
#include "bench/table_common.hpp"
#include "bench/tables.hpp"
#include "harness/run.hpp"
#include "model/extrap.hpp"
#include "model/fit.hpp"
#include "model/model_set.hpp"
#include "model/table_data.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "support/json.hpp"

namespace vodsm {
namespace {

using support::Json;

// --- model/fit: the multi-axis fitter -----------------------------------

model::AxisPoint axisAt(int procs, double n = 1.0, double bw = 100.0,
                        double loss = 0.0) {
  model::AxisPoint x;
  x.procs = procs;
  x.n_scale = n;
  x.bw_mbps = bw;
  x.loss_pct = loss;
  return x;
}

// T(x) for a known constant + exponent vector, through the same regressor
// basis the fitter uses.
double truth(const model::AxisPoint& x, double c,
             const std::array<double, model::kRegressorCount>& e) {
  double ln = std::log(c);
  for (int r = 0; r < model::kRegressorCount; ++r)
    ln += e[r] * model::regressor(x, r);
  return std::exp(ln);
}

TEST(MultiFit, RecoversAMultiAxisModelExactly) {
  // Noise-free samples from c * p^1.3 * n^0.7 * (100/bw)^0.5 *
  // (1+100*loss)^0.25, varied on every axis: the fitter must recover the
  // generating subset — and nothing more — to numerical precision.
  const double c = 0.5;
  const std::array<double, model::kRegressorCount> e = {1.3, 0.0, 0.7, 0.5,
                                                        0.25};
  std::vector<model::FitSample> pts;
  for (int p : {2, 4, 8, 16, 32}) pts.push_back({axisAt(p), 0});
  pts.push_back({axisAt(4, 0.5), 0});
  pts.push_back({axisAt(4, 2.0), 0});
  pts.push_back({axisAt(8, 1.0, 50.0), 0});
  pts.push_back({axisAt(8, 1.0, 200.0), 0});
  pts.push_back({axisAt(16, 1.0, 100.0, 0.2), 0});
  pts.push_back({axisAt(16, 1.0, 100.0, 0.5), 0});
  for (model::FitSample& s : pts) s.value = truth(s.axes, c, e);

  const model::MultiFit fit = model::fitMulti(pts);
  ASSERT_TRUE(fit.ok);
  const uint32_t want = (1u << model::kLnP) | (1u << model::kLnN) |
                        (1u << model::kLnInvBw) | (1u << model::kLnLoss);
  EXPECT_EQ(fit.mask, want);
  EXPECT_NEAR(fit.c, c, 1e-6);
  for (int r = 0; r < model::kRegressorCount; ++r)
    EXPECT_NEAR(fit.exp[r], e[r], 1e-6) << model::kRegressorTerm[r];
  // Predicts an unseen coordinate, off-grid on every axis.
  const model::AxisPoint probe = axisAt(24, 1.5, 80.0, 0.3);
  EXPECT_NEAR(fit.eval(probe), truth(probe, c, e),
              1e-6 * truth(probe, c, e));
}

TEST(MultiFit, SelectsTheMinimalRegressorSubset) {
  // The value depends on p alone, but decoy axes vary across the samples.
  // Cross-validated selection with the fewest-terms tie-break must keep
  // only the p term — a decoy can fit the training data no better, so it
  // never survives the strict-improvement margin.
  std::vector<model::FitSample> pts = {
      {axisAt(2, 0.5), 0},
      {axisAt(4, 1.0, 50.0), 0},
      {axisAt(8, 1.0, 100.0, 0.5), 0},
      {axisAt(16), 0},
      {axisAt(32, 2.0), 0},
  };
  for (model::FitSample& s : pts)
    s.value = 3.0 * std::pow(static_cast<double>(s.axes.procs), 0.5);
  const model::MultiFit fit = model::fitMulti(pts);
  ASSERT_TRUE(fit.ok);
  EXPECT_EQ(fit.mask, 1u << model::kLnP);
  EXPECT_NEAR(fit.c, 3.0, 1e-6);
  EXPECT_NEAR(fit.exp[model::kLnP], 0.5, 1e-6);
}

TEST(MultiFit, LoocvMatchesHandComputedFolds) {
  // Points (2,2), (4,4), (8,16) under the pure power law c * p^a:
  //   hold out (2,2):  fit on the rest gives p^2/4, predicts 1   -> 0.5
  //   hold out (4,4):  fit gives p^1.5/sqrt(2), predicts 2^2.5   -> sqrt(2)-1
  //   hold out (8,16): fit gives p, predicts 8                   -> 0.5
  // mean = (0.5 + sqrt(2)-1 + 0.5) / 3 = sqrt(2)/3.
  const std::vector<model::FitSample> pts = {
      {axisAt(2), 2.0}, {axisAt(4), 4.0}, {axisAt(8), 16.0}};
  EXPECT_NEAR(model::loocvRelErr(pts, 1u << model::kLnP),
              std::sqrt(2.0) / 3.0, 1e-12);
  // Two points cannot cross-validate a one-term model (each fold would fit
  // two coefficients to one sample): the score is reported incomputable.
  const std::vector<model::FitSample> two = {{axisAt(2), 2.0},
                                             {axisAt(4), 4.0}};
  EXPECT_LT(model::loocvRelErr(two, 1u << model::kLnP), 0);
}

// --- model/model_set: composition and cross-validation ------------------

// A synthetic (app, impl) series whose buckets follow known power laws;
// idle is structurally zero to exercise the zero-bucket path. Buckets are
// node-summed seconds, so sim_seconds = sum / p.
std::vector<model::CellSample> syntheticSeries() {
  std::vector<model::CellSample> cells;
  for (int p : {2, 4, 8, 16}) {
    model::CellSample c;
    c.id = "APP/X/" + std::to_string(p) + "p";
    c.app = std::string("APP");
    c.impl = std::string("X");
    c.axes = axisAt(p);
    c.has_breakdown = true;
    const double dp = p;
    c.breakdown = {2.0 * dp, 0.5 * dp * dp, 0.25 * dp, std::pow(dp, 1.5),
                   0.0};
    double sum = 0;
    for (double b : c.breakdown) sum += b;
    c.sim_seconds = sum / dp;
    cells.push_back(std::move(c));
  }
  return cells;
}

TEST(ModelSet, ComposedBucketsSumToTheTotalPredictionEverywhere) {
  const model::ModelSet set = model::buildModelSet(syntheticSeries(), 0);
  ASSERT_EQ(set.series.size(), 1u);
  const model::SeriesModel& m = set.series[0];
  ASSERT_TRUE(m.has_buckets);
  ASSERT_EQ(m.buckets.size(), static_cast<size_t>(model::kBucketCount));
  EXPECT_TRUE(m.buckets[4].zero);  // idle never paid
  EXPECT_EQ(m.buckets[4].eval(axisAt(8)), 0.0);
  // The composition is exact BY CONSTRUCTION at any coordinate, not just
  // the training grid — probe an off-grid point.
  const model::AxisPoint probe = axisAt(6);
  double node_sum = 0;
  for (const model::BucketModel& b : m.buckets) node_sum += b.eval(probe);
  EXPECT_DOUBLE_EQ(m.predictTotal(probe), node_sum / 6.0);
  // Noise-free power-law buckets: the composed model reproduces every
  // training cell.
  for (const model::CellEval& e : set.evals) EXPECT_LT(e.rel_err, 1e-6);
}

TEST(ModelSet, HoldoutSelectionIsDeterministicByIdOrder) {
  std::vector<model::CellSample> cells = syntheticSeries();
  // Sequential and 1-processor cells never enter a fit.
  model::CellSample seq;
  seq.id = "APP/seq/1p";
  seq.app = "APP";
  seq.impl = "seq";
  seq.axes = axisAt(1);
  seq.sim_seconds = 9.0;
  cells.push_back(seq);

  const model::ModelSet set = model::buildModelSet(cells, 3);
  EXPECT_EQ(set.evals.size(), 4u);  // the seq cell is excluded entirely
  // Id order is 16p < 2p < 4p < 8p (string sort), so with k = 3 the third
  // cell — APP/X/4p — is the one held out.
  int held = 0;
  for (const model::CellEval& e : set.evals)
    if (e.held_out) {
      ++held;
      EXPECT_EQ(e.id, "APP/X/4p");
      EXPECT_LT(e.rel_err, 1e-6);  // noise-free: predicted from the rest
    }
  EXPECT_EQ(held, 1);
  const double med = set.medianHeldOutRelErr();
  EXPECT_GE(med, 0.0);
  EXPECT_LT(med, 1e-6);
}

TEST(ModelSet, RealTracedBreakdownPartitionsAndComposes) {
  // A real traced IS run: the five aggregate buckets must partition
  // p * run_time EXACTLY (integer simulated time), and a model set built
  // from such cells must compose — bucket predictions summing to the total
  // prediction — at any coordinate.
  apps::IsParams params;
  params.n_keys = 1 << 12;
  params.max_key = (1 << 8) - 1;
  params.iterations = 3;

  std::vector<model::CellSample> cells;
  for (int procs : {2, 4}) {
    harness::RunConfig cfg;
    cfg.protocol = dsm::Protocol::kVcSd;
    cfg.nprocs = procs;
    obs::TraceRecorder rec;
    cfg.trace = &rec;
    const harness::RunResult r =
        apps::runIs(cfg, params, apps::IsVariant::kVopp).result;
    ASSERT_TRUE(r.breakdown.enabled());
    EXPECT_EQ(r.breakdown.aggregate.total(),
              static_cast<sim::Time>(procs) * r.breakdown.run_time);

    model::CellSample s;
    s.id = "IS/VC_sd/" + std::to_string(procs) + "p";
    s.app = "IS";
    s.impl = "VC_sd";
    s.axes = axisAt(procs);
    s.sim_seconds = r.seconds;
    s.has_breakdown = true;
    const obs::BucketSet& b = r.breakdown.aggregate;
    s.breakdown = {sim::toSeconds(b.compute), sim::toSeconds(b.barrier_wait),
                   sim::toSeconds(b.acquire_wait),
                   sim::toSeconds(b.fault_diff), sim::toSeconds(b.idle)};
    double sum = 0;
    for (double v : s.breakdown) sum += v;
    EXPECT_NEAR(sum, procs * s.sim_seconds, 1e-9);
    cells.push_back(std::move(s));
  }

  const model::ModelSet set = model::buildModelSet(cells, 0);
  ASSERT_EQ(set.series.size(), 1u);
  const model::SeriesModel& m = set.series[0];
  ASSERT_TRUE(m.has_buckets);
  const model::AxisPoint probe = axisAt(3);
  double node_sum = 0;
  for (const model::BucketModel& bm : m.buckets) node_sum += bm.eval(probe);
  EXPECT_DOUBLE_EQ(m.predictTotal(probe), node_sum / 3.0);
  EXPECT_FALSE(m.dominantTerm(probe).empty());
}

// --- model/model_set: the extrapolation check (model_suite --validate) ---

// A reference-configuration cell "APP/<impl>/<p>p<suffix>".
model::CellSample refCell(const std::string& impl, int p, double seconds,
                          const std::string& suffix = "") {
  model::CellSample c;
  c.id = "APP/" + impl + "/" + std::to_string(p) + "p" + suffix;
  c.app = "APP";
  c.impl = impl;
  c.axes = axisAt(p);
  c.sim_seconds = seconds;
  return c;
}

double costModel(double c, double a, double b, int p) {
  return c * std::pow(p, a) * std::pow(std::log2(p), b);
}

TEST(Extrapolation, NoiseFreeSeriesPredictsBeyondTheGrid) {
  // The paper's speedup grid; its top octave {16, 24, 32} has three points,
  // so the refit recovers c, a and b and extrapolates two octaves exactly.
  const double c = 0.5, a = -0.8, b = 1.2;
  std::vector<model::CellSample> train, probes;
  for (int p : {2, 4, 8, 16, 24, 32})
    train.push_back(refCell("X", p, costModel(c, a, b, p)));
  for (int p : {64, 128}) probes.push_back(refCell("X", p, 1.0));
  const model::ExtrapolationCheck check =
      model::checkExtrapolation(train, probes);
  ASSERT_EQ(check.cells.size(), 2u);
  EXPECT_EQ(check.cells[0].id, "APP/X/64p");
  EXPECT_NEAR(check.cells[0].predicted, costModel(c, a, b, 64), 1e-9);
  EXPECT_EQ(check.cells[1].id, "APP/X/128p");
  EXPECT_NEAR(check.cells[1].predicted, costModel(c, a, b, 128), 1e-9);
}

TEST(Extrapolation, FallsBackToThePowerLawWhenLog2PIsUnidentifiable) {
  // Only the tail counts: 8p is off the power law through (16, 1) and
  // (32, 0.5), which is T = 16 / p and predicts 0.25 at 64p.
  const std::vector<model::CellSample> probe = {refCell("X", 64, 1.0)};
  // Two tail points, {16, 32}: b cannot be identified.
  const std::vector<model::CellSample> two = {
      refCell("X", 8, 5.0), refCell("X", 16, 1.0), refCell("X", 32, 0.5)};
  model::ExtrapolationCheck check = model::checkExtrapolation(two, probe);
  ASSERT_EQ(check.cells.size(), 1u);
  EXPECT_NEAR(check.cells[0].predicted, 0.25, 1e-12);
  // Three tail points but two distinct p: the 3x3 system is singular (the
  // log2 column is an affine image of the ln p column), so b is dropped.
  const std::vector<model::CellSample> dup = {
      refCell("X", 16, 1.0), refCell("X", 32, 0.5),
      refCell("X", 32, 0.5, "/dup")};
  check = model::checkExtrapolation(dup, probe);
  ASSERT_EQ(check.cells.size(), 1u);
  EXPECT_NEAR(check.cells[0].predicted, 0.25, 1e-12);
}

TEST(Extrapolation, OneDistinctPSkipsTheCell) {
  // One distinct p pins no exponent: even the c * p^a fallback is singular,
  // so the probes go unpredicted instead of getting invented numbers.
  const std::vector<model::CellSample> train = {
      refCell("X", 4, 1.0), refCell("X", 4, 2.0, "/a"),
      refCell("X", 4, 3.0, "/b"), refCell("Y", 8, 1.0)};
  const model::ExtrapolationCheck check = model::checkExtrapolation(
      train, {refCell("X", 64, 1.0), refCell("Y", 64, 1.0)});
  EXPECT_TRUE(check.cells.empty());
  EXPECT_EQ(check.median_rel_err, -1.0);
}

TEST(Extrapolation, SkipsProbesWithoutASeriesAndInsideTheGrid) {
  std::vector<model::CellSample> train;
  for (int p : {8, 16, 32}) train.push_back(refCell("X", p, 16.0 / p));
  // An axis-sweep cell is not on the p-only grid: it must not extend it.
  model::CellSample swept = refCell("X", 64, 9.0, "/bw50");
  swept.axes.bw_mbps = 50;
  swept.axes.explicit_axes = true;
  train.push_back(swept);
  const model::ExtrapolationCheck check = model::checkExtrapolation(
      train, {refCell("X_tree", 64, 1.0), refCell("X", 32, 0.5),
              refCell("X", 16, 1.0), refCell("X", 64, 0.2)});
  ASSERT_EQ(check.cells.size(), 1u);
  EXPECT_EQ(check.cells[0].id, "APP/X/64p");
  EXPECT_NEAR(check.cells[0].measured, 0.2, 1e-12);
  EXPECT_NEAR(check.cells[0].predicted, 0.25, 1e-12);
  EXPECT_NEAR(check.cells[0].rel_err, 0.25, 1e-12);
  EXPECT_NEAR(check.median_rel_err, 0.25, 1e-12);
}

TEST(Extrapolation, EvenCountMedianIsTheMeanOfTheMiddleTwo) {
  // T = 16 / p; each probe's measurement is set so |pred/meas - 1| = e.
  const std::vector<model::CellSample> train = {refCell("X", 16, 1.0),
                                                refCell("X", 32, 0.5)};
  std::vector<model::CellSample> probes;
  int p = 64;
  for (double e : {0.8, 0.1, 0.4, 0.2}) {
    probes.push_back(refCell("X", p, 16.0 / p / (1 + e)));
    p *= 2;
  }
  const model::ExtrapolationCheck check =
      model::checkExtrapolation(train, probes);
  ASSERT_EQ(check.cells.size(), 4u);
  EXPECT_NEAR(check.cells[0].rel_err, 0.8, 1e-9);
  // (0.2 + 0.4) / 2, not the lower median 0.2.
  EXPECT_NEAR(check.median_rel_err, 0.3, 1e-9);
}

TEST(Extrapolation, ReportsZeroComparableCells) {
  const std::vector<model::CellSample> train = {refCell("X", 16, 1.0),
                                                refCell("X", 32, 0.5)};
  // An in-grid probe and a probe of a series with no training cells.
  const model::ExtrapolationCheck check = model::checkExtrapolation(
      train, {refCell("X", 32, 0.5), refCell("Y", 64, 1.0)});
  EXPECT_TRUE(check.cells.empty());
  EXPECT_EQ(check.median_rel_err, -1.0);
  EXPECT_TRUE(model::checkExtrapolation(train, {}).cells.empty());
}

// --- model exports: byte determinism -----------------------------------

TEST(ModelJson, IsByteDeterministic) {
  const model::ModelSet set = model::buildModelSet(syntheticSeries(), 3);
  std::ostringstream a, b;
  model::writeModelJson(a, set);
  model::writeModelJson(b, set);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Extrap, ExportIsByteDeterministic) {
  const std::vector<model::CellSample> cells = syntheticSeries();
  std::ostringstream a, b;
  model::writeExtrap(a, cells);
  model::writeExtrap(b, cells);
  EXPECT_EQ(a.str(), b.str());
  const std::string& text = a.str();
  EXPECT_NE(text.find("PARAMETER p"), std::string::npos);
  EXPECT_NE(text.find("REGION APP->X\n"), std::string::npos);
  EXPECT_NE(text.find("REGION APP->X->compute"), std::string::npos);
  EXPECT_NE(text.find("POINTS"), std::string::npos);
}

TEST(TableData, ParsesCellIdsWithAndWithoutVariationSuffix) {
  std::string app, impl;
  int procs = 0;
  ASSERT_TRUE(model::parseCellId("IS/LRC_d/16p/bw50", app, impl, procs));
  EXPECT_EQ(app, "IS");
  EXPECT_EQ(impl, "LRC_d");
  EXPECT_EQ(procs, 16);
  ASSERT_TRUE(model::parseCellId("SOR/VC_sd/2p", app, impl, procs));
  EXPECT_EQ(procs, 2);
  EXPECT_FALSE(model::parseCellId("not-a-cell-id", app, impl, procs));
  EXPECT_FALSE(model::parseCellId("IS/LRC_d/xp", app, impl, procs));
}

// --- diff_compare -------------------------------------------------------

// Runs the gate's comparator with printing routed to a sink.
bench::diff::Report runCompare(const std::string& base,
                               const std::string& cur,
                               const bench::diff::Config& cfg) {
  bench::diff::Report rep;
  std::ostringstream sink;
  rep.out = &sink;
  bench::diff::compare(Json::parse(base), Json::parse(cur), "$", cfg, rep);
  rep.out = nullptr;  // the sink dies here; nobody prints after
  return rep;
}

// Mismatch count under the default config.
int mismatches(const std::string& base, const std::string& cur) {
  return runCompare(base, cur, bench::diff::Config{}).mismatches;
}

TEST(DiffCompare, HostShapeKeysAreIgnored) {
  EXPECT_TRUE(bench::diff::isIgnoredKey("jobs"));
  EXPECT_TRUE(bench::diff::isIgnoredKey("host"));
  EXPECT_FALSE(bench::diff::isIgnoredKey("sim_seconds"));
  EXPECT_FALSE(bench::diff::isIgnoredKey("messages"));
  EXPECT_TRUE(bench::diff::isHostTimingKey("host_seconds"));
  EXPECT_FALSE(bench::diff::isHostTimingKey("sim_seconds"));
}

TEST(DiffCompare, HostMetadataMayAppearWithoutRegeneratingTheBaseline) {
  // The committed baseline predates the "host" record; a current file that
  // carries one (with any contents) must still gate clean, in both
  // directions, and differing host contents must never count as drift.
  const std::string base = R"({"suite": "t", "sim_seconds": 1.5})";
  const std::string cur =
      R"({"suite": "t", "sim_seconds": 1.5,
          "host": {"cores": 64, "jobs": 8, "compiler": "gcc 12"}})";
  EXPECT_EQ(mismatches(base, cur), 0);
  EXPECT_EQ(mismatches(cur, base), 0);
  const std::string other_host =
      R"({"suite": "t", "sim_seconds": 1.5,
          "host": {"cores": 1, "jobs": 1, "compiler": "clang 17"}})";
  EXPECT_EQ(mismatches(cur, other_host), 0);
}

TEST(DiffCompare, PeakRssNeverFailsTheGate) {
  // Host memory is recorded inside "host", so a sweep that peaks at a
  // different RSS, or a baseline that predates the key, gates clean.
  const std::string base =
      R"({"suite": "t", "host": {"cores": 4, "jobs": 2}, "messages": 10})";
  const std::string small =
      R"({"suite": "t", "host": {"cores": 4, "jobs": 2, "peak_rss_mb": 1019.5},
          "messages": 10})";
  const std::string large =
      R"({"suite": "t", "host": {"cores": 4, "jobs": 2, "peak_rss_mb": 6367.0},
          "messages": 10})";
  for (const auto& [a, b] : {std::pair{base, small}, std::pair{small, base},
                             std::pair{small, large}, std::pair{large, small}}) {
    const bench::diff::Report rep = runCompare(a, b, bench::diff::Config{});
    EXPECT_EQ(rep.mismatches, 0);
    EXPECT_EQ(rep.host_failures, 0);
  }
}

TEST(DiffCompare, ThreadCountsNeverCompare) {
  EXPECT_EQ(mismatches(R"({"jobs": 1, "messages": 10})",
                       R"({"jobs": 32, "messages": 10})"),
            0);
}

TEST(DiffCompare, SimulatedDriftStillFails) {
  EXPECT_EQ(mismatches(R"({"sim_seconds": 1.5})", R"({"sim_seconds": 1.6})"),
            1);
  // A non-ignored key appearing or disappearing is drift too.
  EXPECT_EQ(mismatches(R"({"a": 1})", R"({"a": 1, "b": 2})"), 1);
  EXPECT_EQ(mismatches(R"({"a": 1, "b": 2})", R"({"a": 1})"), 1);
}

TEST(DiffCompare, HostTimingsGetToleranceNotEquality) {
  // 20x apart but above the floor: within the default 25x tolerance.
  EXPECT_EQ(mismatches(R"({"wall_seconds": 10.0})",
                       R"({"wall_seconds": 200.0})"),
            0);
  // Beyond 25x: a host-timing failure, not simulated drift.
  const bench::diff::Report beyond =
      runCompare(R"({"wall_seconds": 10.0})", R"({"wall_seconds": 600.0})",
                 bench::diff::Config{});
  EXPECT_EQ(beyond.mismatches, 0);
  EXPECT_EQ(beyond.host_failures, 1);
  // Both under the 5s floor: noise, always passes.
  EXPECT_EQ(mismatches(R"({"host_seconds": 0.001})",
                       R"({"host_seconds": 4.9})"),
            0);
  // Present in only one file: not drift (run-shape dependent).
  EXPECT_EQ(mismatches(R"({"serial_wall_seconds": 9.0, "a": 1})",
                       R"({"a": 1})"),
            0);
}

TEST(DiffCompare, HostOnlyFailureDriftsNoCell) {
  // Only the host timing moved: the cell fails the host check, but its
  // simulated fields are identical, so --explain has nothing to explain.
  const std::string base =
      R"({"cells": [{"id": "IS/LRC_d/16p", "sim_seconds": 2.0,
                     "host_seconds": 10.0}]})";
  const std::string cur =
      R"({"cells": [{"id": "IS/LRC_d/16p", "sim_seconds": 2.0,
                     "host_seconds": 900.0}]})";
  const bench::diff::Report rep =
      runCompare(base, cur, bench::diff::Config{});
  EXPECT_EQ(rep.mismatches, 0);
  EXPECT_EQ(rep.host_failures, 1);
  EXPECT_TRUE(rep.drifted_cells.empty());
}

TEST(DiffCompare, AxesCoordinateRecordsNeverCompare) {
  // "axes" is model_suite input (the cell's sweep coordinates), not a
  // simulated result: a baseline from before the axis sweeps must still
  // gate a current file that records them, and vice versa.
  EXPECT_TRUE(bench::diff::isIgnoredKey("axes"));
  const std::string base = R"({"id": "IS/LRC_d/16p/bw50", "sim_seconds": 2.0})";
  const std::string cur =
      R"({"id": "IS/LRC_d/16p/bw50", "sim_seconds": 2.0,
          "axes": {"procs": 16, "n_scale": 1, "bw_mbps": 50, "loss_pct": 0}})";
  EXPECT_EQ(mismatches(base, cur), 0);
  EXPECT_EQ(mismatches(cur, base), 0);
}

// --- tables: the JSON record ---------------------------------------------

TEST(TablesJson, FaultSpecIsEscaped) {
  // A fault-plan path may hold any byte; the record must stay valid JSON.
  bench::Options o;
  o.faults = "@/tmp/plan\tdir/\"q\"\n.json";
  bench::TableSpec spec;
  spec.name = "t";
  spec.cells.emplace_back("IS/LRC_d/2p", nullptr);
  bench::SpecRun run;
  run.results.resize(1);
  run.cell_host_seconds = {0.0};
  std::ostringstream os;
  bench::writeTablesJson(os, {spec}, {run}, o, 1, 0, 0);
  const Json doc = Json::parse(os.str());
  EXPECT_EQ(doc.at("faults").asString(), o.faults);
  EXPECT_GT(doc.at("host").at("peak_rss_mb").asNumber(), 0.0);
}

// --- table_common: command-line parsing ---------------------------------

bench::Options parseOne(const char* flag) {
  std::string argv0 = "table", arg = flag;
  char* argv[] = {argv0.data(), arg.data()};
  return bench::parseArgs(2, argv);
}

TEST(BenchArgs, ProcsBelowOneIsAUsageError) {
  for (const char* flag : {"--procs=0", "--procs=-4"})
    EXPECT_EXIT(parseOne(flag), testing::ExitedWithCode(2),
                "--procs must be at least 1")
        << flag;
  EXPECT_EQ(parseOne("--procs=1").procs, 1);
}

}  // namespace
}  // namespace vodsm
