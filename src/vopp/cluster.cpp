#include "vopp/cluster.hpp"

#include "obs/diagnose.hpp"
#include "obs/profile.hpp"

namespace vodsm::vopp {

namespace {

// obs sits below net, so its wire-class tables mirror net::MsgClass
// value-for-value; the mirrors are asserted here, where both are in scope.
static_assert(static_cast<int>(obs::WireClass::kAcquire) ==
                      static_cast<int>(net::MsgClass::kAcquire) &&
                  static_cast<int>(obs::WireClass::kDiffRequest) ==
                      static_cast<int>(net::MsgClass::kDiffRequest) &&
                  static_cast<int>(obs::WireClass::kDiffReply) ==
                      static_cast<int>(net::MsgClass::kDiffReply) &&
                  static_cast<int>(obs::WireClass::kOther) ==
                      static_cast<int>(net::MsgClass::kOther),
              "WireClass must mirror net::MsgClass");
static_assert(static_cast<int>(net::MsgClass::kAcquire) == 0 &&
                  static_cast<int>(net::MsgClass::kGrant) == 1 &&
                  static_cast<int>(net::MsgClass::kRelease) == 2 &&
                  static_cast<int>(net::MsgClass::kDiffRequest) == 3 &&
                  static_cast<int>(net::MsgClass::kDiffReply) == 4 &&
                  static_cast<int>(net::MsgClass::kBarrier) == 5 &&
                  static_cast<int>(net::MsgClass::kData) == 6 &&
                  static_cast<int>(net::MsgClass::kOther) == 7 &&
                  obs::kProfileClassCount == net::kMsgClassCount,
              "profile class table must mirror net::MsgClass");

// The profile's wire half: the transport counters, per class and in total.
void fillNetCounters(const net::NetStats& ns, obs::RunProfile& p) {
  p.has_net = true;
  for (int c = 0; c < obs::kProfileClassCount; ++c) {
    p.classes[c].messages = ns.kind[c].messages;
    p.classes[c].payload_bytes = ns.kind[c].payload_bytes;
    p.classes[c].retransmissions = ns.kind[c].retransmissions;
    p.classes[c].drops = ns.kind[c].drops;
  }
  p.net_messages = ns.messages;
  p.net_payload_bytes = ns.payload_bytes;
  p.net_retransmissions = ns.retransmissions;
  p.net_acks = ns.acks;
  p.net_ack_drops = ns.ack_drops;
  p.net_frames_sent = ns.frames_sent;
  p.net_frames_delivered = ns.frames_delivered;
}

}  // namespace

std::unique_ptr<dsm::Runtime> Cluster::makeRuntime(dsm::NodeCtx& ctx) const {
  switch (protocol()) {
    case dsm::Protocol::kLrcDiff:
      return std::make_unique<dsm::LrcRuntime>(ctx);
    case dsm::Protocol::kVcDiff:
      return std::make_unique<dsm::VcRuntime>(ctx, /*integrated=*/false);
    case dsm::Protocol::kVcSd:
      return std::make_unique<dsm::VcRuntime>(ctx, /*integrated=*/true);
  }
  VODSM_CHECK_MSG(false, "unknown protocol");
  return nullptr;
}

Cluster::Cluster(const harness::RunConfig& cfg) : machine_(cfg) {
  VODSM_CHECK_MSG(!cfg.diagnose || cfg.trace,
                  "diagnose needs a traced run (RunConfig::trace)");
}

void Cluster::run(const Program& program) {
  VODSM_CHECK_MSG(!started_, "Cluster::run called twice");
  started_ = true;
  VODSM_CHECK_MSG(views_.heapBytes() > 0,
                  "no shared memory defined before run");
  const harness::RunConfig& cfg = machine_.config();
  views_.placeHomes(cfg.nprocs);
  ctxs_.reserve(static_cast<size_t>(cfg.nprocs));
  runtimes_.reserve(static_cast<size_t>(cfg.nprocs));
  nodes_.reserve(static_cast<size_t>(cfg.nprocs));
  for (int i = 0; i < cfg.nprocs; ++i) {
    ctxs_.push_back(std::make_unique<dsm::NodeCtx>(
        static_cast<dsm::NodeId>(i), cfg.nprocs, machine_.engine(),
        machine_.network(), views_, cfg.costs, cfg.trace, cfg.metrics,
        cfg.barrier));
    runtimes_.push_back(makeRuntime(*ctxs_.back()));
    nodes_.push_back(
        std::make_unique<Node>(*this, *ctxs_.back(), *runtimes_.back()));
  }
  machine_.run(scope_, [&](size_t i) { return program(*nodes_[i]); },
               [&](size_t i) -> sim::Clock& { return ctxs_[i]->clock; });
}

harness::RunResult Cluster::result() const {
  harness::RunResult r = machine_.result();
  r.dsm = dsmStats();
  const harness::RunConfig& cfg = machine_.config();
  if (!cfg.trace) return r;
  const obs::TraceRecorder& trace = *cfg.trace;
  obs::RunFolds folds = obs::foldRun(trace, cfg.nprocs, finishTime());
  const obs::MetricsSummary* m = r.metrics.enabled() ? &r.metrics : nullptr;
  r.profile = obs::buildRunProfile(folds, m);
  fillNetCounters(r.net, r.profile);
  if (cfg.diagnose) {
    // obs sits below net/dsm, so the diagnosis passes take the wire
    // knowledge they need as hooks wired here: the dsm message classifier
    // and the run's undegraded frame serialization cost.
    const net::NetConfig& net = cfg.net;
    r.diagnosis = obs::diagnose(
        trace, folds, m,
        [](uint64_t type) {
          return static_cast<obs::WireClass>(
              dsm::classifyMsg(static_cast<uint16_t>(type)));
        },
        [&net](uint64_t bytes) {
          return net.txTime(static_cast<size_t>(bytes));
        });
  }
  r.breakdown = std::move(folds.breakdown);
  r.critpath = std::move(folds.critpath);
  r.pageheat = std::move(folds.pageheat);
  return r;
}

dsm::DsmStats Cluster::dsmStats() const {
  dsm::DsmStats total;
  for (const auto& ctx : ctxs_) total.add(ctx->stats);
  return total;
}

sim::Task<void> Node::mergeViews() {
  for (dsm::ViewId v = 0;
       v < static_cast<dsm::ViewId>(cluster_.views().viewCount()); ++v) {
    const auto& def = cluster_.views().view(v);
    co_await acquireRview(v);
    co_await touchRead(def.offset, def.bytes);
    co_await releaseRview(v);
  }
}

}  // namespace vodsm::vopp
