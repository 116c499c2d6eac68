#include "net/faults.hpp"

#include <cmath>

#include "support/check.hpp"

namespace vodsm::net {

namespace {

// ---------------------------------------------------------------------------
// Rule evaluation.

bool ruleActive(const FaultRule& r, sim::Time now) {
  if (now < r.t0 || now >= r.t1) return false;
  if (r.period > 0) return (now - r.t0) % r.period < r.duty;
  return true;
}

// Membership in a partition set; nodes beyond the 64-bit mask count as
// outside (the simulator never exceeds 64 nodes, but don't shift UB on it).
bool inSet(uint64_t set, NodeId id) {
  return id < 64 && ((set >> id) & 1) != 0;
}

bool linkMatches(const FaultRule& r, NodeId src, NodeId dst) {
  if (r.kind == FaultKind::kPartition)
    return inSet(r.node_set, src) != inSet(r.node_set, dst);
  if (r.src != kAnyNode && r.src != src) return false;
  if (r.dst != kAnyNode && r.dst != dst) return false;
  if (r.node != kAnyNode && r.node != src && r.node != dst) return false;
  return true;
}

// ---------------------------------------------------------------------------
// Spec parsing.
//
//   spec    := segment (';' segment)*
//   segment := 'seed:' <uint>
//            | 'profile:' <name>        (expands a named chaos profile)
//            | <kind> [':' kv (',' kv)*]
//   kind    := loss | burst | dup | reorder | degrade | partition | slow
//   kv      := <key> '=' <value>
//
// Keys (all optional unless noted): p (probability), t0/t1/period/duty
// (seconds), delay/lat (seconds, added delay), from/to/node (node ids),
// nodes (partition/slow set: '3', '0+2+5', or '1-4'; required for
// partition), factor (multiplier; slow requires node or nodes), bw (degrade
// alias: bandwidth divisor), count (max frames dropped by this rule).

[[noreturn]] void specFail(const std::string& what, const std::string& tok) {
  throw Error("bad --faults spec: " + what + " '" + tok + "'");
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  out.push_back(cur);
  return out;
}

double parseDouble(const std::string& tok) {
  size_t used = 0;
  double v = 0;
  try {
    v = std::stod(tok, &used);
  } catch (const std::exception&) {
    specFail("not a number", tok);
  }
  if (used != tok.size()) specFail("not a number", tok);
  return v;
}

uint64_t parseUint(const std::string& tok) {
  size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(tok, &used);
  } catch (const std::exception&) {
    specFail("not a non-negative integer", tok);
  }
  if (used != tok.size() || tok[0] == '-')
    specFail("not a non-negative integer", tok);
  return v;
}

sim::Time secondsToTime(double s) {
  return static_cast<sim::Time>(std::llround(s * 1e9));
}

FaultKind kindFromName(const std::string& name) {
  for (int i = 0; i < kFaultKindCount; ++i)
    if (name == kFaultKindName[i]) return static_cast<FaultKind>(i);
  specFail("unknown fault kind", name);
}

// Node set syntax: '3' (one node), '0+2+5' (list), '1-4' (inclusive range).
uint64_t parseNodeSet(const std::string& tok) {
  uint64_t set = 0;
  for (const std::string& part : split(tok, '+')) {
    const std::vector<std::string> range = split(part, '-');
    if (range.size() == 1) {
      const uint64_t id = parseUint(range[0]);
      if (id >= 64) specFail("node id out of range (max 63)", part);
      set |= 1ULL << id;
    } else if (range.size() == 2) {
      const uint64_t lo = parseUint(range[0]);
      const uint64_t hi = parseUint(range[1]);
      if (lo > hi || hi >= 64) specFail("bad node range", part);
      for (uint64_t id = lo; id <= hi; ++id) set |= 1ULL << id;
    } else {
      specFail("bad node set", tok);
    }
  }
  return set;
}

void applyKey(FaultRule& r, const std::string& key, const std::string& tok) {
  if (key == "nodes") {
    r.node_set = parseNodeSet(tok);
    return;
  }
  // Node ids and drop budgets are whole numbers: parsed as integers, they
  // never round or wrap through a double.
  if (key == "count") {
    r.budget = parseUint(tok);
    return;
  }
  if (key == "from" || key == "to" || key == "node") {
    const uint64_t val = parseUint(tok);
    if (val >= kAnyNode) specFail("node id out of range", tok);
    (key == "from" ? r.src : key == "to" ? r.dst : r.node) =
        static_cast<NodeId>(val);
    return;
  }
  const double val = parseDouble(tok);
  if (key == "p") {
    r.p = val;
    if (r.p < 0 || r.p > 1) specFail("probability outside [0,1]", tok);
  } else if (key == "t0") {
    r.t0 = secondsToTime(val);
  } else if (key == "t1") {
    r.t1 = secondsToTime(val);
  } else if (key == "period") {
    r.period = secondsToTime(val);
    if (r.period < 0) specFail("negative period", tok);
  } else if (key == "duty") {
    r.duty = secondsToTime(val);
    if (r.duty < 0) specFail("negative duty", tok);
  } else if (key == "delay" || key == "lat") {
    r.delay = secondsToTime(val);
    if (r.delay < 0) specFail("negative delay", tok);
  } else if (key == "factor") {
    r.factor = val;
    if (r.factor <= 0) specFail("factor must be positive", tok);
  } else if (key == "bw") {
    r.factor = val;
    if (r.factor <= 0) specFail("bw divisor must be positive", tok);
  } else {
    specFail("unknown key", key);
  }
}

void validateRule(const FaultRule& r) {
  if (r.kind == FaultKind::kPartition && r.node_set == 0)
    throw Error("bad --faults spec: partition needs nodes=...");
  if (r.kind == FaultKind::kSlow && r.node == kAnyNode && r.node_set == 0)
    throw Error("bad --faults spec: slow needs node=... or nodes=...");
  if (r.period > 0 && r.duty <= 0)
    throw Error("bad --faults spec: period without duty never fires");
}

void appendSegment(FaultPlan& plan, const std::string& seg, int depth);

void appendSpec(FaultPlan& plan, const std::string& spec, int depth) {
  VODSM_CHECK_MSG(depth < 4, "fault profile expansion too deep");
  for (const std::string& seg : split(spec, ';'))
    if (!seg.empty()) appendSegment(plan, seg, depth);
}

void appendSegment(FaultPlan& plan, const std::string& seg, int depth) {
  const size_t colon = seg.find(':');
  const std::string head = seg.substr(0, colon);
  const std::string rest =
      colon == std::string::npos ? std::string() : seg.substr(colon + 1);
  if (head == "seed") {
    plan.seed = parseUint(rest);
    return;
  }
  if (head == "profile") {
    appendSpec(plan, chaosProfileSpec(rest), depth + 1);
    return;
  }
  FaultRule r;
  r.kind = kindFromName(head);
  if (!rest.empty()) {
    for (const std::string& kv : split(rest, ',')) {
      const size_t eq = kv.find('=');
      if (eq == std::string::npos) specFail("expected key=value", kv);
      applyKey(r, kv.substr(0, eq), kv.substr(eq + 1));
    }
  }
  // A slow rule over a node set expands to one rule per member so the
  // injector's per-node scaler lookup stays a simple filter.
  if (r.kind == FaultKind::kSlow && r.node_set != 0) {
    for (NodeId id = 0; id < 64; ++id)
      if (inSet(r.node_set, id)) {
        FaultRule one = r;
        one.node = id;
        one.node_set = 0;
        validateRule(one);
        plan.rules.push_back(one);
      }
    return;
  }
  validateRule(r);
  plan.rules.push_back(r);
}

}  // namespace

FaultPlan parseFaultPlan(const std::string& spec) {
  FaultPlan plan;
  appendSpec(plan, spec, 0);
  return plan;
}

std::string chaosProfileSpec(const std::string& name) {
  // Windows and rates are sized for the chaos suite's small app runs
  // (simulated seconds of work on 4-8 nodes). The burst period is chosen
  // not to divide the default 1 s RTO, so a retransmission of a frame lost
  // in one outage does not land in the next outage's phase.
  if (name == "lossy") return "loss:p=0.01";
  if (name == "bursty") return "burst:period=0.313,duty=0.005";
  if (name == "degraded") return "degrade:bw=4,lat=0.0003";
  if (name == "partition") return "partition:nodes=1,t0=0.002,t1=0.012";
  if (name == "straggler") return "slow:node=1,factor=6,t0=0.001,t1=0.25";
  if (name == "flaky") return "dup:p=0.02;reorder:p=0.05,delay=0.0005";
  if (name == "mixed")
    return "loss:p=0.003;dup:p=0.01;reorder:p=0.02,delay=0.0005;"
           "degrade:bw=2,t0=0.1,t1=0.4";
  throw Error("unknown chaos profile: " + name);
}

std::vector<std::string> chaosProfileNames() {
  return {"lossy",     "bursty", "degraded", "partition",
          "straggler", "flaky",  "mixed"};
}

sim::Time FaultInjector::NodeScaler::scale(sim::Time dt,
                                           sim::Time now) const {
  double f = 1.0;
  for (const FaultRule* r : rules_)
    if (ruleActive(*r, now)) f *= r->factor;
  if (f == 1.0) return dt;
  return static_cast<sim::Time>(std::llround(static_cast<double>(dt) * f));
}

FaultInjector::FaultInjector(FaultPlan plan, uint64_t run_seed, int n_nodes)
    : plan_(std::move(plan)) {
  const uint64_t base = plan_.seed ^ (run_seed * 0x9e3779b97f4a7c15ULL) ^
                        0x5ca1ab1e0ddba11ULL;
  shards_.reserve(static_cast<size_t>(n_nodes));
  for (NodeId dst = 0; dst < static_cast<NodeId>(n_nodes); ++dst)
    shards_.push_back(
        Shard{sim::Rng(base ^ ((dst + 1) * 0x9e3779b97f4a7c15ULL)),
              std::vector<uint64_t>(plan_.rules.size(), 0)});
  scalers_.resize(static_cast<size_t>(n_nodes));
  for (NodeId node = 0; node < static_cast<NodeId>(n_nodes); ++node) {
    std::vector<const FaultRule*> slow;
    for (const FaultRule& r : plan_.rules)
      if (r.kind == FaultKind::kSlow &&
          (r.node == kAnyNode || r.node == node))
        slow.push_back(&r);
    if (!slow.empty())
      scalers_[node] = std::make_unique<NodeScaler>(std::move(slow));
  }
}

const sim::ChargeScaler* FaultInjector::chargeScalerFor(NodeId node) const {
  if (node >= scalers_.size()) return nullptr;
  return scalers_[node].get();
}

uint64_t FaultInjector::droppedBy(size_t i) const {
  uint64_t total = 0;
  for (const Shard& sh : shards_) total += sh.used[i];
  return total;
}

FaultAction FaultInjector::onFrame(NodeId src, NodeId dst, sim::Time now) {
  VODSM_DCHECK(dst < shards_.size());
  Shard& sh = shards_[dst];
  FaultAction a;
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& r = plan_.rules[i];
    if (r.kind == FaultKind::kSlow) continue;
    if (!ruleActive(r, now) || !linkMatches(r, src, dst)) continue;
    switch (r.kind) {
      case FaultKind::kLoss:
        if (sh.used[i] < r.budget && sh.rng.chance(r.p)) {
          sh.used[i]++;
          a.drop = true;
          a.cause = r.kind;
          return a;
        }
        break;
      case FaultKind::kBurst:
      case FaultKind::kPartition:
        if (sh.used[i] < r.budget) {
          sh.used[i]++;
          a.drop = true;
          a.cause = r.kind;
          return a;
        }
        break;
      case FaultKind::kDup:
        if (!a.duplicate && sh.rng.chance(r.p)) a.duplicate = true;
        break;
      case FaultKind::kReorder:
        if (sh.rng.chance(r.p)) {
          a.reordered = true;
          a.extra_delay += r.delay;
        }
        break;
      case FaultKind::kDegrade:
        a.degraded = true;
        a.tx_factor *= r.factor;
        a.extra_delay += r.delay;
        break;
      case FaultKind::kSlow:
        break;
    }
  }
  return a;
}

}  // namespace vodsm::net
