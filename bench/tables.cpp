#include "bench/tables.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <thread>

#include <sys/resource.h>

#include "bench/diff_compare.hpp"
#include "bench/paper_params.hpp"
#include "harness/parallel_runner.hpp"
#include "obs/breakdown.hpp"
#include "obs/critical_path.hpp"
#include "obs/diagnose.hpp"
#include "obs/metrics.hpp"
#include "obs/page_heat.hpp"
#include "obs/profile.hpp"
#include "obs/profile_diff.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "support/json_writer.hpp"

namespace vodsm::bench {

namespace {

using apps::GaussVariant;
using apps::IsVariant;
using apps::NnVariant;
using apps::SorVariant;
using dsm::Protocol;
using harness::RunResult;

// Processor counts of the speedup tables (paper Tables 3, 5, 7, 9).
const std::vector<int> kSpeedupProcs = {2, 4, 8, 16, 24, 32};

// Compiler identification for the JSON "host" record. Host-dependent like
// the rest of that object, so bench_diff never compares it.
#if defined(__clang_version__)
constexpr const char* kCompilerId = "clang " __clang_version__;
#elif defined(__VERSION__)
constexpr const char* kCompilerId = "gcc " __VERSION__;
#else
constexpr const char* kCompilerId = "unknown";
#endif

// This process's peak resident memory so far, in MB (10^6 bytes).
double peakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024 / 1e6;  // ru_maxrss is KiB
}

std::string cellId(const std::string& app, const std::string& impl,
                   int procs) {
  return app + "/" + impl + "/" + std::to_string(procs) + "p";
}

// --- axis variations (table 10) -----------------------------------------

// One off-reference coordinate of the model axis space: a problem-size
// scale, a link bandwidth, or a frame-loss rate different from the paper
// testbed's. The suffix joins the cell id ("IS/LRC_d/16p/bw50").
struct AxisVariation {
  const char* suffix;
  double n_scale;
  double bw_mbps;
  double loss_pct;
};

// Two points per axis so every regressor of the model family is
// identified. Loss stays <= 0.5%: each lost frame costs a one-second RTO,
// so higher rates blow up simulated (and host) time.
constexpr AxisVariation kAxisVariations[] = {
    {"bw50", 1.0, 50.0, 0.0},    {"bw200", 1.0, 200.0, 0.0},
    {"loss0.2", 1.0, 100.0, 0.2}, {"loss0.5", 1.0, 100.0, 0.5},
    {"n0.5", 0.5, 100.0, 0.0},    {"n2", 2.0, 100.0, 0.0},
};

model::AxisPoint axisPoint(int procs, const AxisVariation& v) {
  model::AxisPoint a;
  a.procs = procs;
  a.n_scale = v.n_scale;
  a.bw_mbps = v.bw_mbps;
  a.loss_pct = v.loss_pct;
  a.explicit_axes = true;
  return a;
}

void applyAxes(harness::RunConfig& c, const model::AxisPoint& a) {
  c.net.bandwidth_bps = a.bw_mbps * 1e6;
  c.net.random_loss = a.loss_pct / 100.0;
}

// --- the cell builder -----------------------------------------------------

// Which observers a cell runs under; copied out of Options so the cell
// lambdas stay self-contained. The fault plan travels by value for the
// same reason: every cell binds its own injector to its own run, so the
// parallel sweep shares no mutable fault state.
struct CellFlags {
  // Every report (breakdown, critical path, page heat, diagnosis, profile)
  // reads the trace; a traced cell always carries the whole analysis.
  bool traced = false;
  // Diagnosis and profiles consume the metrics summary too.
  bool metrics = false;
  bool diagnose = false;
  net::FaultPlan faults;
};

CellFlags flagsOf(const Options& o) {
  const bool profiled = !o.profile_dir.empty() || !o.compare_dir.empty();
  CellFlags f{o.breakdown || o.critpath || o.pageheat || o.diagnose ||
                  profiled,
              o.metrics || o.diagnose || profiled, o.diagnose, {}};
  if (!o.faults.empty()) {
    try {
      f.faults = net::parseFaultPlan(o.faults);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      std::exit(2);
    }
  }
  return f;
}

// The one cell builder: cell `id` runs the app entry point `run` (runIs,
// runGauss, runSor or runNn) with `params` and `variant` on `cfg`, traced
// and metered through cell-local observers when `o` asks for it. The
// recorder and registry live only for the run; the analysis travels out by
// value inside RunResult, and per-cell ownership keeps the parallel sweep
// free of shared mutable state. The registry samples at interval 0: the
// bench only consumes peaks and means, so no time series is recorded.
template <typename Run, typename Params, typename Variant>
Cell makeCell(const Options& o, std::string id, harness::RunConfig cfg,
              Run run, Params params, Variant variant) {
  return Cell{std::move(id), [=, flags = flagsOf(o)] {
                obs::TraceRecorder rec;
                obs::MetricsRegistry mets;
                harness::RunConfig c = cfg;
                if (flags.traced) c.trace = &rec;
                if (flags.metrics) c.metrics = &mets;
                c.diagnose = flags.diagnose;
                if (!flags.faults.empty()) c.faults = &flags.faults;
                return run(c, params, variant).result;
              }};
}

// --- table shapes -------------------------------------------------------

// Stats table: one column per named cell, in cell order.
TableSpec statsSpec(std::string name, std::string title,
                    std::vector<std::string> col_names,
                    std::vector<Cell> cells, bool show_acquire_time = false) {
  TableSpec spec;
  spec.name = std::move(name);
  spec.cells = std::move(cells);
  spec.print = [title = std::move(title), col_names = std::move(col_names),
                show_acquire_time](std::ostream& os,
                                   const std::vector<RunResult>& results) {
    StatsTable table(title);
    for (size_t i = 0; i < results.size(); ++i)
      table.add(col_names[i], results[i], show_acquire_time);
    table.print(os);
  };
  return spec;
}

// Speedup table: cell 0 is the sequential baseline, then row-major
// (row r, processor count k) at index 1 + r * |procs| + k.
TableSpec speedupSpec(std::string name, std::string title,
                      std::vector<std::string> row_names, Cell seq_cell,
                      std::vector<Cell> grid_cells) {
  TableSpec spec;
  spec.name = std::move(name);
  spec.cells.push_back(std::move(seq_cell));
  for (auto& c : grid_cells) spec.cells.push_back(std::move(c));
  spec.print = [title = std::move(title), row_names = std::move(row_names)](
                   std::ostream& os, const std::vector<RunResult>& results) {
    SpeedupTable table(title, kSpeedupProcs);
    const double t_seq = results[0].seconds;
    const size_t np = kSpeedupProcs.size();
    for (size_t r = 0; r < row_names.size(); ++r) {
      std::vector<double> times;
      for (size_t k = 0; k < np; ++k)
        times.push_back(results[1 + r * np + k].seconds);
      table.add(row_names[r], t_seq, times);
    }
    table.print(os);
  };
  return spec;
}

}  // namespace

TableSpec table1Spec(const Options& o) {
  const int p = o.procs;
  const apps::IsParams is = isParams(o.full);
  return statsSpec(
      "table1_is_stats",
      "Table 1: Statistics of IS on " + std::to_string(p) + " processors",
      {"LRC_d", "VC_d", "VC_sd"},
      {makeCell(o, cellId("IS", "LRC_d", p), baseConfig(Protocol::kLrcDiff, p),
                apps::runIs, is, IsVariant::kTraditional),
       makeCell(o, cellId("IS", "VC_d", p), baseConfig(Protocol::kVcDiff, p),
                apps::runIs, is, IsVariant::kVopp),
       makeCell(o, cellId("IS", "VC_sd", p), baseConfig(Protocol::kVcSd, p),
                apps::runIs, is, IsVariant::kVopp)});
}

TableSpec table2Spec(const Options& o) {
  const int p = o.procs;
  const apps::IsParams is = isParams(o.full);
  return statsSpec(
      "table2_is_fewer_barriers",
      "Table 2: Statistics of IS with fewer barriers on " +
          std::to_string(p) + " processors",
      {"VC_d", "VC_sd"},
      {makeCell(o, cellId("IS", "VC_d_lb", p), baseConfig(Protocol::kVcDiff, p),
                apps::runIs, is, IsVariant::kVoppFewerBarriers),
       makeCell(o, cellId("IS", "VC_sd_lb", p), baseConfig(Protocol::kVcSd, p),
                apps::runIs, is, IsVariant::kVoppFewerBarriers)});
}

TableSpec table3Spec(const Options& o) {
  const apps::IsParams is = isParams(o.full);
  std::vector<Cell> grid;
  for (int p : kSpeedupProcs)
    grid.push_back(makeCell(o, cellId("IS", "LRC_d", p),
                            baseConfig(Protocol::kLrcDiff, p), apps::runIs,
                            is, IsVariant::kTraditional));
  for (int p : kSpeedupProcs)
    grid.push_back(makeCell(o, cellId("IS", "VC_sd", p),
                            baseConfig(Protocol::kVcSd, p), apps::runIs, is,
                            IsVariant::kVopp));
  for (int p : kSpeedupProcs)
    grid.push_back(makeCell(o, cellId("IS", "VC_sd_lb", p),
                            baseConfig(Protocol::kVcSd, p), apps::runIs, is,
                            IsVariant::kVoppFewerBarriers));
  return speedupSpec("table3_is_speedup",
                     "Table 3: Speedup of IS on LRC_d and VC_sd",
                     {"LRC_d", "VC_sd", "VC_sd lb"},
                     makeCell(o, cellId("IS", "seq", 1), sequentialConfig(),
                              apps::runIs, is, IsVariant::kTraditional),
                     std::move(grid));
}

TableSpec table4Spec(const Options& o) {
  const int p = o.procs;
  const apps::GaussParams gauss = gaussParams(o.full);
  return statsSpec(
      "table4_gauss_stats",
      "Table 4: Statistics of Gauss on " + std::to_string(p) + " processors",
      {"LRC_d", "VC_d", "VC_sd"},
      {makeCell(o, cellId("Gauss", "LRC_d", p),
                baseConfig(Protocol::kLrcDiff, p), apps::runGauss, gauss,
                GaussVariant::kTraditional),
       makeCell(o, cellId("Gauss", "VC_d", p), baseConfig(Protocol::kVcDiff, p),
                apps::runGauss, gauss, GaussVariant::kVopp),
       makeCell(o, cellId("Gauss", "VC_sd", p), baseConfig(Protocol::kVcSd, p),
                apps::runGauss, gauss, GaussVariant::kVopp)});
}

TableSpec table5Spec(const Options& o) {
  const apps::GaussParams gauss = gaussParams(o.full);
  std::vector<Cell> grid;
  for (int p : kSpeedupProcs)
    grid.push_back(makeCell(o, cellId("Gauss", "LRC_d", p),
                            baseConfig(Protocol::kLrcDiff, p), apps::runGauss,
                            gauss, GaussVariant::kTraditional));
  for (int p : kSpeedupProcs)
    grid.push_back(makeCell(o, cellId("Gauss", "VC_sd", p),
                            baseConfig(Protocol::kVcSd, p), apps::runGauss,
                            gauss, GaussVariant::kVopp));
  return speedupSpec(
      "table5_gauss_speedup", "Table 5: Speedup of Gauss on LRC_d and VC_sd",
      {"LRC_d", "VC_sd"},
      makeCell(o, cellId("Gauss", "seq", 1), sequentialConfig(),
               apps::runGauss, gauss, GaussVariant::kTraditional),
      std::move(grid));
}

TableSpec table6Spec(const Options& o) {
  const int p = o.procs;
  const apps::SorParams sor = sorParams(o.full);
  return statsSpec(
      "table6_sor_stats",
      "Table 6: Statistics of SOR on " + std::to_string(p) + " processors",
      {"LRC_d", "VC_d", "VC_sd"},
      {makeCell(o, cellId("SOR", "LRC_d", p),
                baseConfig(Protocol::kLrcDiff, p), apps::runSor, sor,
                SorVariant::kTraditional),
       makeCell(o, cellId("SOR", "VC_d", p), baseConfig(Protocol::kVcDiff, p),
                apps::runSor, sor, SorVariant::kVopp),
       makeCell(o, cellId("SOR", "VC_sd", p), baseConfig(Protocol::kVcSd, p),
                apps::runSor, sor, SorVariant::kVopp)});
}

TableSpec table7Spec(const Options& o) {
  const apps::SorParams sor = sorParams(o.full);
  std::vector<Cell> grid;
  for (int p : kSpeedupProcs)
    grid.push_back(makeCell(o, cellId("SOR", "LRC_d", p),
                            baseConfig(Protocol::kLrcDiff, p), apps::runSor,
                            sor, SorVariant::kTraditional));
  for (int p : kSpeedupProcs)
    grid.push_back(makeCell(o, cellId("SOR", "VC_sd", p),
                            baseConfig(Protocol::kVcSd, p), apps::runSor, sor,
                            SorVariant::kVopp));
  return speedupSpec(
      "table7_sor_speedup", "Table 7: Speedup of SOR on LRC_d and VC_sd",
      {"LRC_d", "VC_sd"},
      makeCell(o, cellId("SOR", "seq", 1), sequentialConfig(), apps::runSor,
               sor, SorVariant::kTraditional),
      std::move(grid));
}

TableSpec table8Spec(const Options& o) {
  const int p = o.procs;
  const apps::NnParams nn = nnParams(o.full);
  return statsSpec(
      "table8_nn_stats",
      "Table 8: Statistics of NN on " + std::to_string(p) + " processors",
      {"LRC_d", "VC_d", "VC_sd"},
      {makeCell(o, cellId("NN", "LRC_d", p), baseConfig(Protocol::kLrcDiff, p),
                apps::runNn, nn, NnVariant::kTraditional),
       makeCell(o, cellId("NN", "VC_d", p), baseConfig(Protocol::kVcDiff, p),
                apps::runNn, nn, NnVariant::kVopp),
       makeCell(o, cellId("NN", "VC_sd", p), baseConfig(Protocol::kVcSd, p),
                apps::runNn, nn, NnVariant::kVopp)},
      /*show_acquire_time=*/true);
}

TableSpec table9Spec(const Options& o) {
  const apps::NnParams nn = nnParams(o.full);
  std::vector<Cell> grid;
  for (int p : kSpeedupProcs)
    grid.push_back(makeCell(o, cellId("NN", "LRC_d", p),
                            baseConfig(Protocol::kLrcDiff, p), apps::runNn, nn,
                            NnVariant::kTraditional));
  for (int p : kSpeedupProcs)
    grid.push_back(makeCell(o, cellId("NN", "VC_sd", p),
                            baseConfig(Protocol::kVcSd, p), apps::runNn, nn,
                            NnVariant::kVopp));
  for (int p : kSpeedupProcs)
    grid.push_back(makeCell(o, cellId("NN", "MPI", p),
                            baseConfig(Protocol::kVcSd, p), apps::runNn, nn,
                            NnVariant::kMpi));
  return speedupSpec(
      "table9_nn_speedup", "Table 9: Speedup of NN on LRC_d, VC_sd and MPI",
      {"LRC_d", "VC_sd", "MPI"},
      makeCell(o, cellId("NN", "seq", 1), sequentialConfig(), apps::runNn, nn,
               NnVariant::kTraditional),
      std::move(grid));
}

TableSpec table10Spec(const Options& o) {
  TableSpec spec;
  spec.name = "table10_axis_sweep";
  for (const AxisVariation& v : kAxisVariations) {
    // The problem-size scale hits each app's natural work knob (IS: key
    // count; SOR: iteration count — both scale total work linearly without
    // changing the sharing pattern); bandwidth and loss go through
    // NetConfig.
    apps::IsParams is = isParams(o.full);
    is.n_keys =
        static_cast<size_t>(static_cast<double>(is.n_keys) * v.n_scale);
    apps::SorParams sor = sorParams(o.full);
    sor.iterations = std::max(
        1, static_cast<int>(static_cast<double>(sor.iterations) * v.n_scale));
    const model::AxisPoint axes = axisPoint(o.procs, v);
    const auto at = [&](Protocol proto) {
      harness::RunConfig c = baseConfig(proto, o.procs);
      applyAxes(c, axes);
      return c;
    };
    const auto id = [&](const char* app, const char* impl) {
      return cellId(app, impl, o.procs) + "/" + v.suffix;
    };
    for (Cell& c : std::vector<Cell>{
             makeCell(o, id("IS", "LRC_d"), at(Protocol::kLrcDiff), apps::runIs,
                      is, IsVariant::kTraditional),
             makeCell(o, id("IS", "VC_sd"), at(Protocol::kVcSd), apps::runIs,
                      is, IsVariant::kVopp),
             makeCell(o, id("SOR", "LRC_d"), at(Protocol::kLrcDiff),
                      apps::runSor, sor, SorVariant::kTraditional),
             makeCell(o, id("SOR", "VC_sd"), at(Protocol::kVcSd), apps::runSor,
                      sor, SorVariant::kVopp)}) {
      c.axes = axes;
      spec.cells.push_back(std::move(c));
    }
  }
  std::vector<std::string> ids;
  for (const Cell& c : spec.cells) ids.push_back(c.id);
  spec.print = [ids = std::move(ids), procs = o.procs](
                   std::ostream& os, const std::vector<RunResult>& results) {
    os << "\nTable 10: Axis sweep (bandwidth / loss / size) on "
       << std::to_string(procs) << " processors\n";
    TextTable t;
    t.header({"cell", "Time (Sec.)", "Num. Msg", "Rexmit"});
    for (size_t i = 0; i < results.size(); ++i)
      t.row({ids[i], TextTable::format(results[i].seconds),
             TextTable::format(results[i].net.messages),
             TextTable::format(results[i].net.retransmissions)});
    t.print(os);
  };
  return spec;
}

TableSpec table11Spec(const Options& o) {
  std::vector<int> procs = {32, 64, 128, 256};
  if (o.big) {
    procs.push_back(512);
    procs.push_back(1024);
  }
  using dsm::BarrierAlg;
  TableSpec spec;
  spec.name = "table11_scaling";
  const apps::IsParams is = isParams(o.full);
  // An IS cell on the paper's star fabric with the given barrier algorithm.
  const auto add = [&](const char* impl, Protocol proto, IsVariant variant,
                       int p, BarrierAlg barrier) {
    harness::RunConfig c = baseConfig(proto, p);
    c.barrier = barrier;
    spec.cells.push_back(
        makeCell(o, cellId("IS", impl, p), c, apps::runIs, is, variant));
  };
  for (int p : procs) {
    // Past 256 processors the star/centralized cells are deep in
    // retransmission collapse — simulated time and host memory both blow
    // up on work the 256p rows already demonstrate — so the big-p rows
    // carry only the tree barrier. The butterfly gets one cell per
    // protocol at 256p, where it beats the tree for LRC_d and loses for
    // VC_sd.
    if (p <= 256)
      add("LRC_d", Protocol::kLrcDiff, IsVariant::kTraditional, p,
          BarrierAlg::kCentral);
    add("LRC_d_tree", Protocol::kLrcDiff, IsVariant::kTraditional, p,
        BarrierAlg::kTree);
    if (p == 256)
      add("LRC_d_butterfly", Protocol::kLrcDiff, IsVariant::kTraditional, p,
          BarrierAlg::kButterfly);
    if (p <= 256)
      add("VC_sd", Protocol::kVcSd, IsVariant::kVopp, p, BarrierAlg::kCentral);
    // VOPP IS lays out p^2 contribution views, so each node's page table
    // is O(p^2) and the cluster's host footprint O(p^3): ~7.5 GB at 512
    // processors, past any CI runner at 1024. The traditional variant's
    // flat bucket array keeps the 1024p row affordable, and still
    // exercises the tree barrier at full scale.
    if (p <= 512)
      add("VC_sd_tree", Protocol::kVcSd, IsVariant::kVopp, p,
          BarrierAlg::kTree);
    if (p == 256)
      add("VC_sd_butterfly", Protocol::kVcSd, IsVariant::kVopp, p,
          BarrierAlg::kButterfly);
  }
  std::vector<std::string> ids;
  for (const Cell& c : spec.cells) ids.push_back(c.id);
  spec.print = [ids = std::move(ids)](
                   std::ostream& os, const std::vector<RunResult>& results) {
    os << "\nTable 11: IS scaling on the star fabric — central vs tree "
          "(_tree) and butterfly (_butterfly) barriers\n";
    TextTable t;
    t.header({"cell", "Time (Sec.)", "Num. Msg", "Barrier Time (usec.)",
              "Rexmit"});
    for (size_t i = 0; i < results.size(); ++i)
      t.row({ids[i], TextTable::format(results[i].seconds),
             TextTable::format(results[i].net.messages),
             TextTable::format(results[i].dsm.avgBarrierMicros()),
             TextTable::format(results[i].net.retransmissions)});
    t.print(os);
  };
  return spec;
}

std::vector<TableSpec> allTableSpecs(const Options& o) {
  std::vector<TableSpec> specs;
  specs.push_back(table1Spec(o));
  specs.push_back(table2Spec(o));
  specs.push_back(table3Spec(o));
  specs.push_back(table4Spec(o));
  specs.push_back(table5Spec(o));
  specs.push_back(table6Spec(o));
  specs.push_back(table7Spec(o));
  specs.push_back(table8Spec(o));
  specs.push_back(table9Spec(o));
  specs.push_back(table10Spec(o));
  return specs;
}

std::vector<SpecRun> runSpecs(const std::vector<TableSpec>& specs, int jobs) {
  using Clock = std::chrono::steady_clock;
  std::vector<SpecRun> runs(specs.size());
  std::vector<std::pair<size_t, size_t>> slots;  // (spec, cell)
  for (size_t s = 0; s < specs.size(); ++s) {
    runs[s].results.resize(specs[s].cells.size());
    runs[s].cell_host_seconds.resize(specs[s].cells.size(), 0.0);
    for (size_t c = 0; c < specs[s].cells.size(); ++c) slots.push_back({s, c});
  }
  const auto t0 = Clock::now();
  harness::ParallelRunner(jobs).forEach(slots.size(), [&](size_t i) {
    const auto [s, c] = slots[i];
    const auto c0 = Clock::now();
    runs[s].results[c] = specs[s].cells[c].run();
    runs[s].cell_host_seconds[c] =
        std::chrono::duration<double>(Clock::now() - c0).count();
  });
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  for (SpecRun& r : runs) r.wall_seconds = wall;
  return runs;
}

int writeCellProfiles(const std::string& dir,
                      const std::vector<TableSpec>& specs,
                      const std::vector<SpecRun>& runs, std::ostream& log) {
  std::filesystem::create_directories(dir);
  int written = 0;
  for (size_t s = 0; s < specs.size(); ++s) {
    for (size_t i = 0; i < specs[s].cells.size(); ++i) {
      const RunResult& r = runs[s].results[i];
      if (!r.profile.enabled()) continue;  // MPI reference cells
      obs::RunProfile p = r.profile;
      p.label = specs[s].cells[i].id;
      const std::filesystem::path path =
          std::filesystem::path(dir) / diff::cellProfileFileName(p.label);
      std::ofstream f(path);
      VODSM_CHECK_MSG(f.good(), "cannot write " + path.string());
      obs::writeRunProfileJson(f, p);
      ++written;
    }
  }
  log << "profiles: wrote " << written << " cell profiles to " << dir
      << "\n";
  return written;
}

int compareCellProfiles(const std::string& baseline_dir,
                        const std::vector<TableSpec>& specs,
                        const std::vector<SpecRun>& runs, std::ostream& os,
                        std::ostream& log) {
  int printed = 0;
  for (size_t s = 0; s < specs.size(); ++s) {
    for (size_t i = 0; i < specs[s].cells.size(); ++i) {
      const RunResult& r = runs[s].results[i];
      if (!r.profile.enabled()) continue;
      const std::string& id = specs[s].cells[i].id;
      const std::filesystem::path path =
          std::filesystem::path(baseline_dir) / diff::cellProfileFileName(id);
      if (!std::filesystem::exists(path)) {
        log << "compare: no baseline profile for " << id << " ("
            << path.string() << ")\n";
        continue;
      }
      const obs::RunProfile baseline =
          obs::loadRunProfileFile(path.string());
      obs::RunProfile current = r.profile;
      current.label = id;
      const obs::DiffReport report = obs::diffProfiles(baseline, current);
      obs::printDiffReport(os, report, "Differential report: " + id);
      ++printed;
    }
  }
  return printed;
}

void writeTablesJson(std::ostream& os, const std::vector<TableSpec>& specs,
                     const std::vector<SpecRun>& runs, const Options& o,
                     int jobs, double wall_seconds,
                     double serial_wall_seconds) {
  size_t n_cells = 0;
  for (const auto& s : specs) n_cells += s.cells.size();
  os << std::setprecision(6) << std::fixed;
  os << "{\n";
  os << "  \"suite\": \"paper_tables\",\n";
  // Host provenance: which machine/configuration produced this artifact,
  // and the process's peak RSS by the time the sweep is written.
  // Every key here is host-dependent, so bench_diff ignores the whole
  // object (like "jobs"); the simulated fields it compares stay
  // byte-identical regardless of where the suite ran.
  os << "  \"host\": {\"cores\": " << std::thread::hardware_concurrency()
     << ", \"jobs\": " << jobs << ", \"compiler\": \"" << kCompilerId
     << "\", \"peak_rss_mb\": " << peakRssMb() << "},\n";
  os << "  \"full\": " << (o.full ? "true" : "false") << ",\n";
  os << "  \"breakdown\": " << (o.breakdown ? "true" : "false") << ",\n";
  if (!o.faults.empty()) {
    // Record the active fault spec (escaped as a JSON string) so a faulted
    // artifact can never be mistaken for a baseline. Fault-free runs write
    // no fault keys at all, keeping the baseline byte-identical.
    os << "  \"faults\": \"" << support::jsonEscape(o.faults) << "\",\n";
  }
  os << "  \"jobs\": " << jobs << ",\n";
  os << "  \"cells\": " << n_cells << ",\n";
  os << "  \"wall_seconds\": " << wall_seconds << ",\n";
  if (serial_wall_seconds > 0) {
    os << "  \"serial_wall_seconds\": " << serial_wall_seconds << ",\n";
    os << "  \"speedup_vs_serial\": "
       << (wall_seconds > 0 ? serial_wall_seconds / wall_seconds : 0.0)
       << ",\n";
  }
  os << "  \"tables\": [\n";
  for (size_t s = 0; s < specs.size(); ++s) {
    os << "    {\"name\": \"" << specs[s].name << "\", \"wall_seconds\": "
       << runs[s].wall_seconds << ", \"cells\": [\n";
    for (size_t i = 0; i < specs[s].cells.size(); ++i) {
      const auto& r = runs[s].results[i];
      const model::AxisPoint& ax = specs[s].cells[i].axes;
      os << "      {\"id\": \"" << specs[s].cells[i].id
         << "\", \"sim_seconds\": " << r.seconds;
      if (ax.explicit_axes) {
        // The cell's coordinates in the model axis space; input metadata,
        // not simulated output, so bench_diff ignores the object.
        os << ", \"axes\": {\"procs\": " << ax.procs
           << ", \"n_scale\": " << ax.n_scale
           << ", \"bw_mbps\": " << ax.bw_mbps
           << ", \"loss_pct\": " << ax.loss_pct << "}";
      }
      os << ", \"host_seconds\": " << runs[s].cell_host_seconds[i]
         << ", \"messages\": " << r.net.messages
         << ", \"payload_bytes\": " << r.net.payload_bytes;
      if (!o.faults.empty()) {
        // Per-cell fault columns, present only on faulted sweeps.
        os << ", \"retransmissions\": " << r.net.retransmissions
           << ", \"frames_dropped_fault\": " << r.net.frames_dropped_fault
           << ", \"frames_duplicated\": " << r.net.frames_duplicated
           << ", \"frames_reordered\": " << r.net.frames_reordered
           << ", \"frames_degraded\": " << r.net.frames_degraded;
      }
      if (r.breakdown.enabled()) {
        const obs::BucketSet& b = r.breakdown.aggregate;
        os << ", \"breakdown_seconds\": {\"compute\": "
           << sim::toSeconds(b.compute)
           << ", \"barrier_wait\": " << sim::toSeconds(b.barrier_wait)
           << ", \"acquire_wait\": " << sim::toSeconds(b.acquire_wait)
           << ", \"fault_diff\": " << sim::toSeconds(b.fault_diff)
           << ", \"idle\": " << sim::toSeconds(b.idle) << "}";
      }
      if (o.critpath && r.critpath.enabled()) {
        // Critical-path attribution, on request (every traced cell carries
        // one): the buckets partition the cell's makespan exactly, so these
        // sum to sim_seconds.
        const auto& cat = r.critpath.by_cat;
        os << ", \"critpath_seconds\": {";
        for (int c = 0; c < obs::kPathCatCount; ++c) {
          os << (c ? ", " : "") << "\"" << obs::kPathCatName[c]
             << "\": " << sim::toSeconds(cat[c]);
        }
        os << "}";
      }
      if (r.metrics.enabled()) {
        // Protocol memory footprint and network utilization. Peaks are
        // max-over-nodes high-water marks; utilization is busy time over
        // total link-direction-time (see obs::MetricsSummary). The MPI
        // reference cells are unmetered, so these keys are absent there.
        os << ", \"peak_twin_bytes\": "
           << r.metrics.maxPeak(obs::Metric::kTwinBytes)
           << ", \"peak_diff_bytes\": "
           << r.metrics.maxPeak(obs::Metric::kDiffStoreBytes)
           << ", \"mean_link_utilization\": "
           << r.metrics.meanLinkUtilization();
      }
      os << "}" << (i + 1 < specs[s].cells.size() ? "," : "") << "\n";
    }
    os << "    ]}" << (s + 1 < specs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

int tableMain(const TableSpec& spec, const Options& o) {
  SpecRun run;
  try {
    run = std::move(runSpecs({spec}, o.jobs).front());
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  spec.print(std::cout, run.results);
  if (o.breakdown) {
    for (size_t i = 0; i < spec.cells.size(); ++i)
      if (run.results[i].breakdown.enabled())
        obs::printBreakdown(std::cout, run.results[i].breakdown,
                            "Time breakdown: " + spec.cells[i].id);
  }
  if (o.critpath) {
    for (size_t i = 0; i < spec.cells.size(); ++i)
      if (run.results[i].critpath.enabled())
        obs::printCriticalPath(std::cout, run.results[i].critpath,
                               "Critical path: " + spec.cells[i].id);
  }
  if (o.pageheat) {
    for (size_t i = 0; i < spec.cells.size(); ++i)
      if (run.results[i].pageheat.enabled())
        obs::printPageHeat(std::cout, run.results[i].pageheat,
                           "Page contention: " + spec.cells[i].id);
  }
  if (o.diagnose) {
    for (size_t i = 0; i < spec.cells.size(); ++i)
      if (run.results[i].diagnosis.enabled())
        obs::printDiagnosis(std::cout, run.results[i].diagnosis,
                            "Diagnosis: " + spec.cells[i].id);
  }
  try {
    if (!o.profile_dir.empty())
      writeCellProfiles(o.profile_dir, {spec}, {run}, std::cerr);
    if (!o.compare_dir.empty())
      compareCellProfiles(o.compare_dir, {spec}, {run}, std::cout,
                          std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (!o.json.empty()) {
    std::ofstream f(o.json);
    if (!f) {
      std::cerr << "cannot write " << o.json << "\n";
      return 1;
    }
    writeTablesJson(f, {spec}, {run}, o, harness::resolveJobs(o.jobs),
                    run.wall_seconds, /*serial_wall_seconds=*/0);
  }
  return 0;
}

}  // namespace vodsm::bench
