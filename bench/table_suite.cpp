// Whole-suite driver: every cell of the ten evaluation tables (the
// paper's Tables 1-9 plus the Table 10 axis sweep) executed through the
// parallel experiment runner, then printed in table order and recorded to
// BENCH_tables.json.
//
// All 102 cells across all tables are flattened into one work list and
// sharded over host threads, so the tail cells of one table overlap the
// next table's — the sweep's wall-clock is bounded by total work / cores,
// not by the slowest table. Results are collected in submission order, so
// stdout is byte-identical at any --jobs and, for Tables 1-9, to running
// their nine binaries serially.
//
//   table_suite                      # all tables, all cores
//   table_suite --jobs=1             # serial fallback
//   table_suite --compare-serial     # also measure the serial sweep and
//                                    # record speedup in the JSON
//   table_suite --json=out.json      # default: BENCH_tables.json
#include <fstream>
#include <iostream>

#include "bench/tables.hpp"
#include "harness/parallel_runner.hpp"

int main(int argc, char** argv) {
  using namespace vodsm;
  auto opts = bench::parseArgs(argc, argv);
  if (opts.json.empty()) opts.json = "BENCH_tables.json";
  // The suite always traces and meters: BENCH_tables.json carries a
  // per-cell time breakdown, critical-path attribution and memory/
  // utilization metrics, and neither tracing nor metering can perturb
  // the simulated results.
  opts.breakdown = true;
  opts.critpath = true;
  opts.metrics = true;
  const int jobs = harness::resolveJobs(opts.jobs);

  const auto specs = bench::allTableSpecs(opts);
  size_t cells = 0;
  for (const auto& spec : specs) cells += spec.cells.size();
  std::cerr << "table_suite: " << cells << " cells across " << specs.size()
            << " tables, jobs=" << jobs << "\n";
  std::vector<bench::SpecRun> runs;
  double serial_wall = 0;
  try {
    runs = bench::runSpecs(specs, jobs);
    if (opts.compare_serial && jobs > 1) {
      std::cerr << "table_suite: re-running serially for comparison...\n";
      serial_wall = bench::runSpecs(specs, 1).front().wall_seconds;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const double wall = runs.front().wall_seconds;  // one shared sweep

  for (size_t s = 0; s < specs.size(); ++s)
    specs[s].print(std::cout, runs[s].results);

  // Persisted per-cell run profiles and differential reports against a
  // baseline profile directory (see obs/profile.hpp, obs/profile_diff.hpp).
  // Both are pure post-processing over the sweep's traces.
  try {
    if (!opts.profile_dir.empty())
      bench::writeCellProfiles(opts.profile_dir, specs, runs, std::cerr);
    if (!opts.compare_dir.empty())
      bench::compareCellProfiles(opts.compare_dir, specs, runs, std::cout,
                                 std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "table_suite: " << e.what() << "\n";
    return 1;
  }

  std::ofstream f(opts.json);
  if (!f) {
    std::cerr << "cannot write " << opts.json << "\n";
    return 1;
  }
  bench::writeTablesJson(f, specs, runs, opts, jobs, wall, serial_wall);
  std::cerr << "table_suite: sweep took " << wall << " s";
  if (serial_wall > 0)
    std::cerr << " (serial: " << serial_wall
              << " s, speedup: " << serial_wall / wall << "x)";
  std::cerr << "; wrote " << opts.json << "\n";
  return 0;
}
