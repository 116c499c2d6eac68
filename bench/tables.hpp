// Declarative table specs for the paper's nine evaluation tables.
//
// Each spec names its simulation cells (one cell = one independent,
// deterministic run) and knows how to render the paper-style table from the
// cell results. Splitting "which runs" from "run them" lets every table
// binary — and the whole-suite driver — execute its cells through the
// parallel runner while printing output byte-identical to the old serial
// loops (results are consumed in submission order).
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "bench/table_common.hpp"
#include "model/axes.hpp"

namespace vodsm::bench {

struct Cell {
  Cell() = default;
  Cell(std::string id_, std::function<harness::RunResult()> run_)
      : id(std::move(id_)), run(std::move(run_)) {}

  std::string id;  // e.g. "IS/VC_sd/16p"
  std::function<harness::RunResult()> run;
  // Coordinates in the model axis space. Plain paper-table cells sit at
  // the reference configuration (explicit_axes false); axis-sweep cells
  // record their full coordinates in the JSON so model_suite can fit over
  // them.
  model::AxisPoint axes;
};

struct TableSpec {
  std::string name;  // machine name, e.g. "table3_is_speedup"
  std::vector<Cell> cells;
  std::function<void(std::ostream&, const std::vector<harness::RunResult>&)>
      print;
};

TableSpec table1Spec(const Options& o);
TableSpec table2Spec(const Options& o);
TableSpec table3Spec(const Options& o);
TableSpec table4Spec(const Options& o);
TableSpec table5Spec(const Options& o);
TableSpec table6Spec(const Options& o);
TableSpec table7Spec(const Options& o);
TableSpec table8Spec(const Options& o);
TableSpec table9Spec(const Options& o);
// Off-p-axis sweep (not from the paper): bandwidth, loss-rate and
// problem-size variations of the 16-processor IS and SOR cells, giving the
// multi-axis fitter real training data on every model axis.
TableSpec table10Spec(const Options& o);
// Scaling sweep (not from the paper): IS on LRC_d and VC_sd at p in
// {32, 64, 128, 256} (--big extends to 512 and 1024) on the paper's star
// fabric, with the centralized barrier and with the radix-4 tree barrier
// ("_tree" columns), plus butterfly-barrier cells at 256p ("_butterfly").
// Deliberately NOT part of
// allTableSpecs: it feeds its own baseline (BENCH_scaling.json) and gate,
// keeping BENCH_tables.json byte-identical.
TableSpec table11Spec(const Options& o);
std::vector<TableSpec> allTableSpecs(const Options& o);

// Results of executing one spec's cells.
struct SpecRun {
  std::vector<harness::RunResult> results;   // cells in submission order
  std::vector<double> cell_host_seconds;     // host wall-clock per cell
  double wall_seconds = 0;                   // host wall-clock of the sweep
};

// Runs every cell of every spec as one sweep across `jobs` host threads
// (see parallel_runner.hpp), so the tail cells of one table overlap the
// next table's. One SpecRun per spec, each carrying the sweep's wall time.
std::vector<SpecRun> runSpecs(const std::vector<TableSpec>& specs, int jobs);

// Writes each profiled cell's persisted run profile (obs::RunProfile JSON,
// labelled with the cell id) into `dir`, creating it if needed. Cells
// without a profile — the unmetered MPI reference runs — are skipped.
// Logs a summary line to `log`; returns the number written.
int writeCellProfiles(const std::string& dir,
                      const std::vector<TableSpec>& specs,
                      const std::vector<SpecRun>& runs, std::ostream& log);

// Loads per-cell baseline profiles from `baseline_dir` and prints the
// ranked differential report (baseline = A, this run = B) to `os` for
// every profiled cell whose baseline exists, in cell order. Missing
// baselines are noted on `log`. Returns the number of reports printed.
int compareCellProfiles(const std::string& baseline_dir,
                        const std::vector<TableSpec>& specs,
                        const std::vector<SpecRun>& runs, std::ostream& os,
                        std::ostream& log);

// JSON record for BENCH_tables.json: per-cell simulated + host seconds,
// sweep wall-clock, and (when measured) the serial baseline and speedup.
void writeTablesJson(std::ostream& os, const std::vector<TableSpec>& specs,
                     const std::vector<SpecRun>& runs, const Options& o,
                     int jobs, double wall_seconds,
                     double serial_wall_seconds);

// Shared main() for the per-table binaries: run cells in parallel, print
// the table, optionally write the JSON record to o.json.
int tableMain(const TableSpec& spec, const Options& o);

}  // namespace vodsm::bench
