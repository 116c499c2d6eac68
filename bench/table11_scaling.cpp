// Table 11: IS scaling sweep to 256 processors (nightly --big: 1024).
//
// Not a paper table: the paper's testbed stops at 32 processors. This sweep
// compares the paper's centralized barrier manager against the radix-4
// combining tree (the "_tree" cells) and, at 256 processors, the
// dissemination barrier (the "_butterfly" cells), all on the paper's star
// fabric, as the processor count doubles past the testbed. It feeds the
// committed BENCH_scaling.json baseline behind the scaling_regression_gate
// ctest. model_suite --validate checks its centralized-barrier cells
// against extrapolations fitted from the <= 32p paper grid.
#include "bench/tables.hpp"

int main(int argc, char** argv) {
  auto opts = vodsm::bench::parseArgs(argc, argv);
  return vodsm::bench::tableMain(vodsm::bench::table11Spec(opts), opts);
}
