#include "obs/profile.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "support/check.hpp"
#include "support/json_writer.hpp"

namespace vodsm::obs {
namespace {

// One ProfileEpisode per barrier episode with at least two arrivals.
std::vector<ProfileEpisode> foldEpisodes(const EventGraph& g,
                                         uint64_t* total) {
  std::vector<ProfileEpisode> out;
  *total = 0;
  for (const auto& [barrier, eps] : barrierEpisodes(g)) {
    for (size_t j = 0; j < eps.size(); ++j) {
      const std::vector<Arrival>& a = eps[j];
      if (a.size() < 2) continue;
      ++*total;
      if (out.size() >= kMaxProfileEpisodes) continue;
      ProfileEpisode e;
      e.barrier = barrier;
      e.episode = static_cast<uint32_t>(j);
      e.slow_node = a.back().node;
      e.first = a.front().begin;
      e.second = a[a.size() - 2].begin;
      e.last = a.back().begin;
      e.release = 0;
      for (const Arrival& ar : a) e.release = std::max(e.release, ar.end);
      out.push_back(e);
    }
  }
  return out;
}

std::vector<PageHeatRow> hottestPages(const PageHeat& heat, uint64_t* total) {
  *total = heat.rows.size();
  std::vector<PageHeatRow> rows = heat.rows;
  if (rows.size() > kMaxProfilePages) {
    std::sort(rows.begin(), rows.end(),
              [](const PageHeatRow& x, const PageHeatRow& y) {
                if (x.fault_time != y.fault_time)
                  return x.fault_time > y.fault_time;
                if (x.faults != y.faults) return x.faults > y.faults;
                return x.page < y.page;
              });
    rows.resize(kMaxProfilePages);
    std::sort(rows.begin(), rows.end(),
              [](const PageHeatRow& x, const PageHeatRow& y) {
                return x.page < y.page;
              });
  }
  return rows;
}

std::vector<ProfileMetricRow> foldMetrics(const MetricsSummary& s) {
  // Summary rows are sorted by (metric, node), so one linear scan folds each
  // touched metric into a single row in enum order.
  std::vector<ProfileMetricRow> out;
  for (const MetricSummaryRow& r : s.rows) {
    if (out.empty() || out.back().metric != r.metric) {
      ProfileMetricRow row;
      row.metric = r.metric;
      out.push_back(row);
    }
    ProfileMetricRow& row = out.back();
    row.peak = std::max(row.peak, r.peak);
    row.final_total += r.final_value;
    row.mean_total += r.mean;
  }
  return out;
}

long long ll(sim::Time t) { return static_cast<long long>(t); }
long long ll(uint64_t v) { return static_cast<long long>(v); }

int64_t asInt(const support::Json& j) {
  return static_cast<int64_t>(j.asNumber());
}
uint64_t asUint(const support::Json& j) {
  return static_cast<uint64_t>(j.asNumber());
}

PathCat pathCatFromName(const std::string& name) {
  for (int c = 0; c < kPathCatCount; ++c)
    if (name == kPathCatName[c]) return static_cast<PathCat>(c);
  throw Error("unknown critical-path category '" + name + "' in profile");
}

Metric metricFromName(const std::string& name) {
  for (size_t m = 0; m < kMetricCount; ++m)
    if (name == kMetricInfo[m].name) return static_cast<Metric>(m);
  throw Error("unknown metric '" + name + "' in profile");
}

}  // namespace

RunFolds foldRun(const TraceRecorder& trace, int nprocs, sim::Time finish) {
  RunFolds f;
  f.nprocs = nprocs;
  f.finish = finish;
  f.graph = buildEventGraph(trace, nprocs);
  f.breakdown = foldBreakdown(f.graph, finish);
  f.critpath = computeCriticalPath(f.graph, finish);
  f.pageheat = foldPageHeat(trace);
  return f;
}

RunProfile buildRunProfile(const RunFolds& folds,
                           const MetricsSummary* metrics) {
  RunProfile p;
  p.on = true;
  p.nprocs = folds.nprocs;
  p.makespan = folds.finish;
  p.buckets = folds.breakdown.nodes;
  for (int c = 0; c < kPathCatCount; ++c)
    p.critpath[c] = folds.critpath.by_cat[c];
  p.slices = folds.critpath.slices;
  if (p.slices.size() > kMaxProfileSlices) p.slices.resize(kMaxProfileSlices);
  p.episodes = foldEpisodes(folds.graph, &p.episodes_total);
  p.pages = hottestPages(folds.pageheat, &p.pages_total);
  if (metrics && metrics->enabled()) p.metrics = foldMetrics(*metrics);
  return p;
}

RunProfile buildRunProfile(const TraceRecorder& trace, int nprocs,
                           sim::Time finish, const MetricsSummary* metrics) {
  return buildRunProfile(foldRun(trace, nprocs, finish), metrics);
}

void writeRunProfileJson(std::ostream& os, const RunProfile& p) {
  support::JsonWriter w(os);
  w.beginObject();
  w.key("profile").value("vodsm_run_profile");
  w.key("version").value(1);
  w.key("label").value(p.label);
  w.key("nprocs").value(p.nprocs);
  w.key("makespan_ns").value(ll(p.makespan));

  w.key("buckets_ns").beginArray();
  for (const BucketSet& b : p.buckets) {
    w.beginObject();
    w.key("compute").value(ll(b.compute));
    w.key("barrier_wait").value(ll(b.barrier_wait));
    w.key("acquire_wait").value(ll(b.acquire_wait));
    w.key("fault_diff").value(ll(b.fault_diff));
    w.key("idle").value(ll(b.idle));
    w.endObject();
  }
  w.endArray();

  w.key("critpath_ns").beginObject();
  for (int c = 0; c < kPathCatCount; ++c)
    w.key(kPathCatName[c]).value(ll(p.critpath[c]));
  w.endObject();

  w.key("critpath_slices").beginArray();
  for (const PathSlice& s : p.slices) {
    w.beginObject();
    w.key("node").value(static_cast<int>(s.node));
    w.key("cat").value(kPathCatName[static_cast<int>(s.cat)]);
    w.key("id").value(ll(s.id));
    w.key("ns").value(ll(s.nanos));
    w.endObject();
  }
  w.endArray();

  w.key("episodes_total").value(ll(p.episodes_total));
  w.key("episodes").beginArray();
  for (const ProfileEpisode& e : p.episodes) {
    w.beginObject();
    w.key("barrier").value(ll(e.barrier));
    w.key("episode").value(static_cast<int>(e.episode));
    w.key("slow_node").value(static_cast<int>(e.slow_node));
    w.key("first_ns").value(ll(e.first));
    w.key("second_ns").value(ll(e.second));
    w.key("last_ns").value(ll(e.last));
    w.key("release_ns").value(ll(e.release));
    w.endObject();
  }
  w.endArray();

  w.key("pages_total").value(ll(p.pages_total));
  w.key("pages").beginArray();
  for (const PageHeatRow& r : p.pages) {
    w.beginObject();
    w.key("page").value(ll(r.page));
    w.key("faults").value(ll(r.faults));
    w.key("fault_time_ns").value(ll(r.fault_time));
    w.key("twins").value(ll(r.twins));
    w.key("diff_applies").value(ll(r.diff_applies));
    w.key("diff_bytes").value(ll(r.diff_bytes));
    w.key("notices").value(ll(r.notices));
    w.key("sharers").value(static_cast<int>(r.sharers));
    w.key("writers").value(static_cast<int>(r.writers));
    w.endObject();
  }
  w.endArray();

  w.key("metrics").beginArray();
  for (const ProfileMetricRow& m : p.metrics) {
    w.beginObject();
    w.key("metric").value(metricInfo(m.metric).name);
    w.key("peak").value(ll(m.peak));
    w.key("final").value(ll(m.final_total));
    w.key("mean").value(m.mean_total, "%.17g");
    w.endObject();
  }
  w.endArray();

  if (p.has_net) {
    w.key("net").beginObject();
    w.key("messages").value(ll(p.net_messages));
    w.key("payload_bytes").value(ll(p.net_payload_bytes));
    w.key("retransmissions").value(ll(p.net_retransmissions));
    w.key("acks").value(ll(p.net_acks));
    w.key("ack_drops").value(ll(p.net_ack_drops));
    w.key("frames_sent").value(ll(p.net_frames_sent));
    w.key("frames_delivered").value(ll(p.net_frames_delivered));
    w.key("classes").beginObject();
    for (int c = 0; c < kProfileClassCount; ++c) {
      const ProfileClass& k = p.classes[c];
      w.key(kProfileClassName[c]).beginObject();
      w.key("messages").value(ll(k.messages));
      w.key("payload_bytes").value(ll(k.payload_bytes));
      w.key("retransmissions").value(ll(k.retransmissions));
      w.key("drops").value(ll(k.drops));
      w.endObject();
    }
    w.endObject();
    w.endObject();
  }
  w.endObject();
  os << "\n";
}

RunProfile loadRunProfile(const support::Json& doc) {
  VODSM_CHECK_MSG(doc.isObject() &&
                      doc.at("profile").asString() == "vodsm_run_profile",
                  "not a vodsm run profile document");
  VODSM_CHECK_MSG(asInt(doc.at("version")) == 1,
                  "unsupported run profile version");

  RunProfile p;
  p.on = true;
  p.label = doc.at("label").asString();
  p.nprocs = static_cast<int>(asInt(doc.at("nprocs")));
  p.makespan = asInt(doc.at("makespan_ns"));

  for (const support::Json& j : doc.at("buckets_ns").items()) {
    BucketSet b;
    b.compute = asInt(j.at("compute"));
    b.barrier_wait = asInt(j.at("barrier_wait"));
    b.acquire_wait = asInt(j.at("acquire_wait"));
    b.fault_diff = asInt(j.at("fault_diff"));
    b.idle = asInt(j.at("idle"));
    p.buckets.push_back(b);
  }

  for (const auto& [key, val] : doc.at("critpath_ns").members())
    p.critpath[static_cast<int>(pathCatFromName(key))] = asInt(val);

  for (const support::Json& j : doc.at("critpath_slices").items()) {
    PathSlice s;
    s.node = static_cast<uint32_t>(asUint(j.at("node")));
    s.cat = pathCatFromName(j.at("cat").asString());
    s.id = asUint(j.at("id"));
    s.nanos = asInt(j.at("ns"));
    p.slices.push_back(s);
  }

  p.episodes_total = asUint(doc.at("episodes_total"));
  for (const support::Json& j : doc.at("episodes").items()) {
    ProfileEpisode e;
    e.barrier = asUint(j.at("barrier"));
    e.episode = static_cast<uint32_t>(asUint(j.at("episode")));
    e.slow_node = static_cast<uint32_t>(asUint(j.at("slow_node")));
    e.first = asInt(j.at("first_ns"));
    e.second = asInt(j.at("second_ns"));
    e.last = asInt(j.at("last_ns"));
    e.release = asInt(j.at("release_ns"));
    p.episodes.push_back(e);
  }

  p.pages_total = asUint(doc.at("pages_total"));
  for (const support::Json& j : doc.at("pages").items()) {
    PageHeatRow r;
    r.page = asUint(j.at("page"));
    r.faults = asUint(j.at("faults"));
    r.fault_time = asInt(j.at("fault_time_ns"));
    r.twins = asUint(j.at("twins"));
    r.diff_applies = asUint(j.at("diff_applies"));
    r.diff_bytes = asUint(j.at("diff_bytes"));
    r.notices = asUint(j.at("notices"));
    r.sharers = static_cast<uint32_t>(asUint(j.at("sharers")));
    r.writers = static_cast<uint32_t>(asUint(j.at("writers")));
    p.pages.push_back(r);
  }

  for (const support::Json& j : doc.at("metrics").items()) {
    ProfileMetricRow m;
    m.metric = metricFromName(j.at("metric").asString());
    m.peak = asInt(j.at("peak"));
    m.final_total = asInt(j.at("final"));
    m.mean_total = j.at("mean").asNumber();
    p.metrics.push_back(m);
  }

  if (const support::Json* net = doc.find("net")) {
    p.has_net = true;
    p.net_messages = asUint(net->at("messages"));
    p.net_payload_bytes = asUint(net->at("payload_bytes"));
    p.net_retransmissions = asUint(net->at("retransmissions"));
    p.net_acks = asUint(net->at("acks"));
    p.net_ack_drops = asUint(net->at("ack_drops"));
    p.net_frames_sent = asUint(net->at("frames_sent"));
    p.net_frames_delivered = asUint(net->at("frames_delivered"));
    const support::Json& classes = net->at("classes");
    for (int c = 0; c < kProfileClassCount; ++c) {
      const support::Json& k = classes.at(kProfileClassName[c]);
      p.classes[c].messages = asUint(k.at("messages"));
      p.classes[c].payload_bytes = asUint(k.at("payload_bytes"));
      p.classes[c].retransmissions = asUint(k.at("retransmissions"));
      p.classes[c].drops = asUint(k.at("drops"));
    }
  }
  return p;
}

RunProfile loadRunProfileFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  VODSM_CHECK_MSG(in.good(), "cannot open profile file: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return loadRunProfile(support::Json::parse(text.str()));
}

}  // namespace vodsm::obs
