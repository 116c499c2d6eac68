// Protocol face-off: run the paper's four applications on all three DSM
// runtimes (plus MPI for NN) at a chosen processor count and print a
// side-by-side comparison — a one-page summary of the paper's evaluation.
//
//   $ ./protocol_faceoff [nprocs]
#include <cstdio>
#include <string>

#include "apps/gauss.hpp"
#include "apps/is.hpp"
#include "apps/nn.hpp"
#include "apps/sor.hpp"
#include "support/table.hpp"

using namespace vodsm;

namespace {

harness::RunConfig cfg(dsm::Protocol proto, int procs) {
  harness::RunConfig c;
  c.protocol = proto;
  c.nprocs = procs;
  return c;
}

void report(TextTable& t, const std::string& app, const std::string& runtime,
            const harness::RunResult& r, bool ok) {
  t.row({app, runtime, TextTable::format(r.seconds),
         TextTable::format(r.dataMBytes()), TextTable::format(r.net.messages),
         TextTable::format(r.dsm.diff_requests), ok ? "ok" : "MISMATCH"});
}

}  // namespace

int main(int argc, char** argv) {
  const int procs = argc > 1 ? std::stoi(argv[1]) : 8;
  std::printf("Running IS, Gauss, SOR and NN on %d simulated nodes...\n\n",
              procs);

  TextTable t;
  t.header({"app", "runtime", "time(s)", "data(MB)", "msgs", "diffreq",
            "result"});

  {
    apps::IsParams p;
    p.n_keys = 1 << 16;
    p.max_key = (1 << 12) - 1;
    p.iterations = 5;
    auto serial = apps::isSerialRankSums(p, procs);
    auto lrc = apps::runIs(cfg(dsm::Protocol::kLrcDiff, procs), p,
                           apps::IsVariant::kTraditional);
    report(t, "IS", "LRC_d (traditional)", lrc.result, lrc.rank_sums == serial);
    auto vcd = apps::runIs(cfg(dsm::Protocol::kVcDiff, procs), p,
                           apps::IsVariant::kVopp);
    report(t, "IS", "VC_d  (VOPP)", vcd.result, vcd.rank_sums == serial);
    auto vcsd = apps::runIs(cfg(dsm::Protocol::kVcSd, procs), p,
                            apps::IsVariant::kVoppFewerBarriers);
    report(t, "IS", "VC_sd (VOPP, lb)", vcsd.result, vcsd.rank_sums == serial);
  }
  {
    apps::GaussParams p;
    p.n = 128;
    double serial = apps::gaussSerialChecksum(p);
    auto lrc = apps::runGauss(cfg(dsm::Protocol::kLrcDiff, procs), p,
                              apps::GaussVariant::kTraditional);
    report(t, "Gauss", "LRC_d (traditional)", lrc.result,
           lrc.checksum == serial);
    auto vcsd = apps::runGauss(cfg(dsm::Protocol::kVcSd, procs), p,
                               apps::GaussVariant::kVopp);
    report(t, "Gauss", "VC_sd (VOPP)", vcsd.result, vcsd.checksum == serial);
  }
  {
    apps::SorParams p;
    p.rows = 128;
    p.cols = 128;
    p.iterations = 8;
    double serial = apps::sorSerialChecksum(p);
    auto lrc = apps::runSor(cfg(dsm::Protocol::kLrcDiff, procs), p,
                            apps::SorVariant::kTraditional);
    report(t, "SOR", "LRC_d (traditional)", lrc.result, lrc.checksum == serial);
    auto vcsd = apps::runSor(cfg(dsm::Protocol::kVcSd, procs), p,
                             apps::SorVariant::kVopp);
    report(t, "SOR", "VC_sd (VOPP)", vcsd.result, vcsd.checksum == serial);
  }
  {
    apps::NnParams p;
    p.samples = 128;
    p.epochs = 6;
    double serial = apps::nnSerialChecksum(p, procs);
    auto lrc = apps::runNn(cfg(dsm::Protocol::kLrcDiff, procs), p,
                           apps::NnVariant::kTraditional);
    report(t, "NN", "LRC_d (traditional)", lrc.result, lrc.checksum == serial);
    auto vcsd = apps::runNn(cfg(dsm::Protocol::kVcSd, procs), p,
                            apps::NnVariant::kVopp);
    report(t, "NN", "VC_sd (VOPP)", vcsd.result, vcsd.checksum == serial);
    auto mpi =
        apps::runNn(cfg(dsm::Protocol::kVcSd, procs), p, apps::NnVariant::kMpi);
    report(t, "NN", "MPI", mpi.result, mpi.checksum == serial);
  }

  t.print(std::cout);
  std::printf(
      "\nEvery run is validated against the serial reference ('result' "
      "column).\n");
  return 0;
}
