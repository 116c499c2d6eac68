#include "vopp/cluster.hpp"

#include <algorithm>

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
  switch (opts_.protocol) {
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

void Cluster::run(const Program& program) {
  VODSM_CHECK_MSG(!started_, "Cluster::run called twice");
  started_ = true;
  VODSM_CHECK_MSG(views_.heapBytes() > 0,
                  "no shared memory defined before run");

  // One engine lane (stamp counter) per node. The lanes fix the tie order
  // of equal-time events, which the committed results depend on (see
  // sim::Engine).
  engine_.configureLanes(opts_.nprocs);
  network_ = std::make_unique<net::Network>(engine_, opts_.nprocs, opts_.net,
                                            opts_.seed);
  network_->setTrace(opts_.trace);
  network_->setMetrics(opts_.metrics);
  network_->setClassifier(&dsm::classifyMsg);
  if (opts_.faults && !opts_.faults->empty()) {
    faults_ = std::make_unique<net::FaultInjector>(*opts_.faults, opts_.seed,
                                                   opts_.nprocs);
    network_->setFaults(faults_.get());
  }
  ctxs_.reserve(static_cast<size_t>(opts_.nprocs));
  runtimes_.reserve(static_cast<size_t>(opts_.nprocs));
  nodes_.reserve(static_cast<size_t>(opts_.nprocs));
  for (int i = 0; i < opts_.nprocs; ++i) {
    ctxs_.push_back(std::make_unique<dsm::NodeCtx>(
        static_cast<dsm::NodeId>(i), opts_.nprocs, engine_, *network_, views_,
        opts_.costs, opts_.trace, opts_.metrics, opts_.barrier));
    if (faults_)
      ctxs_.back()->clock.setScaler(
          faults_->chargeScalerFor(static_cast<net::NodeId>(i)));
    runtimes_.push_back(makeRuntime(*ctxs_.back()));
    nodes_.push_back(
        std::make_unique<Node>(*this, *ctxs_.back(), *runtimes_.back()));
  }

  // Per-node completion slots, written by each node's finish callback and
  // folded after the engine drains.
  std::vector<unsigned char> finished(static_cast<size_t>(opts_.nprocs), 0);
  std::vector<std::exception_ptr> errors(static_cast<size_t>(opts_.nprocs));
  std::vector<sim::Time> done_times(static_cast<size_t>(opts_.nprocs), 0);
  for (int i = 0; i < opts_.nprocs; ++i) {
    Node& node = *nodes_[static_cast<size_t>(i)];
    if (auto* t = opts_.trace)
      t->begin(static_cast<uint32_t>(i), obs::Cat::kProgram, 0,
               static_cast<uint64_t>(i));
    // Events scheduled while the program runs to its first suspension (and
    // by the finish callback) belong to node i's lane.
    sim::Engine::LaneGuard lane(engine_, static_cast<uint32_t>(i));
    sim::spawn(scope_, program(node),
               [this, i, &finished, &errors,
                &done_times](std::exception_ptr e) {
                 finished[static_cast<size_t>(i)] = 1;
                 if (e) errors[static_cast<size_t>(i)] = e;
                 const sim::Time done =
                     ctxs_[static_cast<size_t>(i)]->clock.now();
                 if (auto* t = opts_.trace)
                   t->end(static_cast<uint32_t>(i), obs::Cat::kProgram, done,
                          static_cast<uint64_t>(i));
                 done_times[static_cast<size_t>(i)] = done;
               });
  }
  if (auto* t = opts_.trace)
    t->begin(obs::kEngineNode, obs::Cat::kEngineRun, engine_.now());
  if (auto* m = opts_.metrics) m->startSampling(engine_);
  const uint64_t engine_events = engine_.run();
  for (int i = 0; i < opts_.nprocs; ++i)
    finish_time_ = std::max(finish_time_, done_times[static_cast<size_t>(i)]);
  if (auto* t = opts_.trace)
    t->end(obs::kEngineNode, obs::Cat::kEngineRun, engine_.now(),
           engine_events);
  if (auto* m = opts_.metrics) m->closeRun(opts_.nprocs, finish_time_);

  for (int i = 0; i < opts_.nprocs; ++i)
    if (errors[static_cast<size_t>(i)])
      std::rethrow_exception(errors[static_cast<size_t>(i)]);
  for (int i = 0; i < opts_.nprocs; ++i) {
    VODSM_CHECK_MSG(finished[static_cast<size_t>(i)],
                    "deadlock: node " << i
                                      << " never finished (engine drained)");
  }
}

RunAnalysis Cluster::analyze(bool diagnose) const {
  RunAnalysis a;
  if (!opts_.trace) return a;
  const obs::TraceRecorder& trace = *opts_.trace;
  obs::RunFolds folds = obs::foldRun(trace, opts_.nprocs, finish_time_);
  const obs::MetricsSummary metrics = metricsSummary();
  const obs::MetricsSummary* m = metrics.enabled() ? &metrics : nullptr;
  a.profile = obs::buildRunProfile(folds, m);
  fillNetCounters(netStats(), a.profile);
  if (diagnose) {
    // obs sits below net/dsm, so the diagnosis passes take the wire
    // knowledge they need as hooks wired here: the dsm message classifier
    // and the run's undegraded frame serialization cost.
    const net::NetConfig& cfg = opts_.net;
    a.diagnosis = obs::diagnose(
        trace, folds, m,
        [](uint64_t type) {
          return static_cast<obs::WireClass>(
              dsm::classifyMsg(static_cast<uint16_t>(type)));
        },
        [&cfg](uint64_t bytes) {
          return cfg.txTime(static_cast<size_t>(bytes));
        });
  }
  a.breakdown = std::move(folds.breakdown);
  a.critpath = std::move(folds.critpath);
  a.pageheat = std::move(folds.pageheat);
  return a;
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
