// Scalable-barrier regression tests: tree and butterfly barriers change
// timing, never results. Every app's checksum still matches its serial
// reference, and the protocol does the same number of barriers.
#include <gtest/gtest.h>

#include <string>

#include "apps/gauss.hpp"
#include "apps/is.hpp"
#include "apps/nn.hpp"
#include "apps/sor.hpp"
#include "harness/run.hpp"

namespace vodsm {
namespace {

using harness::RunConfig;

apps::IsParams smallIs() {
  apps::IsParams is;
  is.n_keys = 1 << 12;
  is.max_key = (1 << 8) - 1;
  is.iterations = 3;
  return is;
}

// --- barrier algorithm result-equivalence --------------------------------

// Every barrier algorithm must produce the same app answer (serial
// reference checksum) and the same barrier count; only timing and traffic
// may differ.
TEST(BarrierAlg, IsChecksumsMatchSerialUnderEveryAlgorithm) {
  const apps::IsParams is = smallIs();
  const auto ref = apps::isSerialRankSums(is, 8);
  for (auto alg : {dsm::BarrierAlg::kCentral, dsm::BarrierAlg::kTree,
                   dsm::BarrierAlg::kButterfly}) {
    for (auto [proto, variant] :
         {std::pair{dsm::Protocol::kLrcDiff, apps::IsVariant::kTraditional},
          std::pair{dsm::Protocol::kVcDiff, apps::IsVariant::kVopp},
          std::pair{dsm::Protocol::kVcSd, apps::IsVariant::kVopp}}) {
      RunConfig c;
      c.protocol = proto;
      c.nprocs = 8;
      c.barrier = alg;
      const auto run = apps::runIs(c, is, variant);
      EXPECT_EQ(run.rank_sums, ref)
          << "alg=" << static_cast<int>(alg)
          << " proto=" << static_cast<int>(proto);
    }
  }
}

TEST(BarrierAlg, GaussSorNnChecksumsMatchSerialUnderEveryAlgorithm) {
  apps::GaussParams gauss;
  gauss.n = 64;
  apps::SorParams sor;
  sor.rows = 64;
  sor.cols = 64;
  sor.iterations = 3;
  apps::NnParams nn;
  nn.samples = 64;
  nn.epochs = 3;

  const double gauss_ref = apps::gaussSerialChecksum(gauss);
  const double sor_ref = apps::sorSerialChecksum(sor);
  const double nn_ref = apps::nnSerialChecksum(nn, 8);

  for (auto alg : {dsm::BarrierAlg::kCentral, dsm::BarrierAlg::kTree,
                   dsm::BarrierAlg::kButterfly}) {
    RunConfig c;
    c.nprocs = 8;
    c.barrier = alg;

    c.protocol = dsm::Protocol::kVcSd;
    EXPECT_EQ(apps::runGauss(c, gauss, apps::GaussVariant::kVopp).checksum,
              gauss_ref)
        << "gauss alg=" << static_cast<int>(alg);
    EXPECT_EQ(apps::runNn(c, nn, apps::NnVariant::kVopp).checksum, nn_ref)
        << "nn alg=" << static_cast<int>(alg);

    c.protocol = dsm::Protocol::kLrcDiff;
    EXPECT_EQ(
        apps::runSor(c, sor, apps::SorVariant::kTraditional).checksum,
        sor_ref)
        << "sor alg=" << static_cast<int>(alg);
  }
}

TEST(BarrierAlg, BarrierCountIsAlgorithmIndependent) {
  const apps::IsParams is = smallIs();
  for (auto proto : {dsm::Protocol::kVcDiff, dsm::Protocol::kVcSd}) {
    RunConfig c;
    c.protocol = proto;
    c.nprocs = 8;
    const auto central = apps::runIs(c, is, apps::IsVariant::kVopp).result;
    for (auto alg : {dsm::BarrierAlg::kTree, dsm::BarrierAlg::kButterfly}) {
      c.barrier = alg;
      const auto r = apps::runIs(c, is, apps::IsVariant::kVopp).result;
      EXPECT_EQ(r.dsm.barriers, central.dsm.barriers)
          << "alg=" << static_cast<int>(alg)
          << " proto=" << static_cast<int>(proto);
    }
  }
}

}  // namespace
}  // namespace vodsm
