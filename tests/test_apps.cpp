// Application correctness: every variant must reproduce its serial
// reference result exactly (all four apps are engineered for bit-exact
// cross-variant results; NN uses fixed-point gradient folding).
#include <gtest/gtest.h>

#include "apps/gauss.hpp"
#include "apps/is.hpp"
#include "apps/nn.hpp"
#include "apps/sor.hpp"

namespace vodsm {
namespace {

using dsm::Protocol;

harness::RunConfig cfg(Protocol proto, int nprocs) {
  harness::RunConfig c;
  c.protocol = proto;
  c.nprocs = nprocs;
  return c;
}

struct Case {
  Protocol proto;
  int nprocs;
};

std::string caseName(const ::testing::TestParamInfo<Case>& info) {
  return dsm::protocolName(info.param.proto) + "_" +
         std::to_string(info.param.nprocs) + "p";
}

const Case kVoppCases[] = {
    {Protocol::kLrcDiff, 2}, {Protocol::kLrcDiff, 4},
    {Protocol::kVcDiff, 2},  {Protocol::kVcDiff, 4},  {Protocol::kVcDiff, 8},
    {Protocol::kVcSd, 2},    {Protocol::kVcSd, 4},    {Protocol::kVcSd, 8},
};

class VoppAppTest : public ::testing::TestWithParam<Case> {};

TEST_P(VoppAppTest, IsMatchesSerial) {
  apps::IsParams p;
  p.n_keys = 1 << 12;
  p.max_key = 511;
  p.iterations = 3;
  auto run = apps::runIs(cfg(GetParam().proto, GetParam().nprocs), p,
                         apps::IsVariant::kVopp);
  EXPECT_EQ(run.rank_sums, apps::isSerialRankSums(p, GetParam().nprocs));
}

TEST_P(VoppAppTest, IsFewerBarriersMatchesSerial) {
  apps::IsParams p;
  p.n_keys = 1 << 12;
  p.max_key = 511;
  p.iterations = 3;
  auto run = apps::runIs(cfg(GetParam().proto, GetParam().nprocs), p,
                         apps::IsVariant::kVoppFewerBarriers);
  EXPECT_EQ(run.rank_sums, apps::isSerialRankSums(p, GetParam().nprocs));
}

TEST_P(VoppAppTest, GaussMatchesSerial) {
  apps::GaussParams p;
  p.n = 64;
  auto run = apps::runGauss(cfg(GetParam().proto, GetParam().nprocs), p,
                            apps::GaussVariant::kVopp);
  EXPECT_DOUBLE_EQ(run.checksum, apps::gaussSerialChecksum(p));
}

TEST_P(VoppAppTest, SorMatchesSerial) {
  apps::SorParams p;
  p.rows = 64;
  p.cols = 48;
  p.iterations = 4;
  auto run = apps::runSor(cfg(GetParam().proto, GetParam().nprocs), p,
                          apps::SorVariant::kVopp);
  EXPECT_DOUBLE_EQ(run.checksum, apps::sorSerialChecksum(p));
}

TEST_P(VoppAppTest, NnMatchesSerial) {
  apps::NnParams p;
  p.samples = 64;
  p.epochs = 3;
  auto run = apps::runNn(cfg(GetParam().proto, GetParam().nprocs), p,
                         apps::NnVariant::kVopp);
  EXPECT_DOUBLE_EQ(run.checksum,
                   apps::nnSerialChecksum(p, GetParam().nprocs));
}

INSTANTIATE_TEST_SUITE_P(Sweep, VoppAppTest, ::testing::ValuesIn(kVoppCases),
                         caseName);

// Traditional variants run on LRC_d only.
class TraditionalAppTest : public ::testing::TestWithParam<int> {};

TEST_P(TraditionalAppTest, IsMatchesSerial) {
  apps::IsParams p;
  p.n_keys = 1 << 12;
  p.max_key = 511;
  p.iterations = 3;
  auto run = apps::runIs(cfg(Protocol::kLrcDiff, GetParam()), p,
                         apps::IsVariant::kTraditional);
  EXPECT_EQ(run.rank_sums, apps::isSerialRankSums(p, GetParam()));
}

TEST_P(TraditionalAppTest, GaussMatchesSerial) {
  apps::GaussParams p;
  p.n = 64;
  auto run = apps::runGauss(cfg(Protocol::kLrcDiff, GetParam()), p,
                            apps::GaussVariant::kTraditional);
  EXPECT_DOUBLE_EQ(run.checksum, apps::gaussSerialChecksum(p));
}

TEST_P(TraditionalAppTest, SorMatchesSerial) {
  apps::SorParams p;
  p.rows = 64;
  p.cols = 48;
  p.iterations = 4;
  auto run = apps::runSor(cfg(Protocol::kLrcDiff, GetParam()), p,
                          apps::SorVariant::kTraditional);
  EXPECT_DOUBLE_EQ(run.checksum, apps::sorSerialChecksum(p));
}

TEST_P(TraditionalAppTest, NnMatchesSerial) {
  apps::NnParams p;
  p.samples = 64;
  p.epochs = 3;
  auto run = apps::runNn(cfg(Protocol::kLrcDiff, GetParam()), p,
                         apps::NnVariant::kTraditional);
  EXPECT_DOUBLE_EQ(run.checksum, apps::nnSerialChecksum(p, GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TraditionalAppTest,
                         ::testing::Values(2, 4, 8),
                         [](const auto& info) {
                           return std::to_string(info.param) + "p";
                         });

// MPI variant.
class MpiAppTest : public ::testing::TestWithParam<int> {};

// Every MPI message is payload: the shared machine's classifier counts all
// of it as kData.
void expectAllData(const net::NetStats& s) {
  const net::KindStats& data = s.of(net::MsgClass::kData);
  EXPECT_GT(data.messages, 0u);
  EXPECT_EQ(data.messages, s.messages);
  EXPECT_EQ(data.payload_bytes, s.payload_bytes);
  EXPECT_EQ(data.retransmissions, s.retransmissions);
}

TEST_P(MpiAppTest, NnMatchesSerial) {
  apps::NnParams p;
  p.samples = 64;
  p.epochs = 3;
  auto run = apps::runNn(cfg(Protocol::kVcSd, GetParam()), p,
                         apps::NnVariant::kMpi);
  EXPECT_DOUBLE_EQ(run.checksum, apps::nnSerialChecksum(p, GetParam()));
  expectAllData(run.result.net);
}

// NN/MPI on the shared machine takes the same fault plans as the DSM
// runtimes: a straggler slows it down, loss makes it retransmit, and the
// result stays exact.
TEST(MpiFaults, NnSurvivesStragglerAndLoss) {
  apps::NnParams p;
  p.samples = 128;
  p.epochs = 5;
  const double expected = apps::nnSerialChecksum(p, 8);
  const auto run = [&](const std::string& spec) {
    const net::FaultPlan plan = net::parseFaultPlan(spec);
    harness::RunConfig c = cfg(Protocol::kVcSd, 8);
    c.faults = &plan;
    apps::NnRun r = apps::runNn(c, p, apps::NnVariant::kMpi);
    EXPECT_DOUBLE_EQ(r.checksum, expected) << spec;
    return r.result;
  };
  const harness::RunResult clean = run("");
  EXPECT_EQ(clean.net.retransmissions, 0u);
  const harness::RunResult slow = run("profile:straggler");
  EXPECT_GT(slow.seconds, clean.seconds);
  const harness::RunResult lossy = run("profile:lossy");
  EXPECT_GT(lossy.net.retransmissions, 0u);
  expectAllData(lossy.net);
  EXPECT_GT(lossy.net.of(net::MsgClass::kData).drops, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MpiAppTest, ::testing::Values(2, 4, 8, 16),
                         [](const auto& info) {
                           return std::to_string(info.param) + "p";
                         });

// Single processor degenerate case must also work.
TEST(AppEdgeCases, SingleProcessor) {
  apps::IsParams p;
  p.n_keys = 1024;
  p.max_key = 127;
  p.iterations = 2;
  for (Protocol proto :
       {Protocol::kLrcDiff, Protocol::kVcDiff, Protocol::kVcSd}) {
    auto run = apps::runIs(cfg(proto, 1), p, apps::IsVariant::kVopp);
    EXPECT_EQ(run.rank_sums, apps::isSerialRankSums(p, 1))
        << dsm::protocolName(proto);
  }
}

}  // namespace
}  // namespace vodsm
