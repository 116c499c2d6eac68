#include "obs/perfetto.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <vector>

namespace vodsm::obs {

namespace {

const char* trackName(Track t) {
  switch (t) {
    case Track::kApp: return "app";
    case Track::kProto: return "proto";
    case Track::kNet: return "net";
  }
  return "?";
}

char phaseChar(Phase p) {
  switch (p) {
    case Phase::kBegin: return 'B';
    case Phase::kEnd: return 'E';
    case Phase::kInstant: return 'i';
  }
  return '?';
}

}  // namespace

void writeChromeTrace(std::ostream& os, const TraceRecorder& trace,
                      const MetricsRegistry* metrics) {
  // Only an export recorder stores every event; a fold-only one has
  // dropped its write notices.
  VODSM_CHECK(trace.mode() == TraceMode::kExport);
  const auto& events = trace.events();

  // One process per node plus one for the engine pseudo-node; pids are the
  // node ids, the engine gets the first unused one.
  uint32_t max_node = 0;
  for (const Event& e : events)
    if (e.node != kEngineNode) max_node = std::max(max_node, e.node);
  const uint32_t engine_pid = max_node + 1;

  // Stable (ts, recording order) sort: begins precede their ends at equal
  // timestamps because they were recorded first.
  std::vector<uint32_t> order(events.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return events[a].ts < events[b].ts;
  });

  os << "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const char* line) {
    if (!first) os << ",\n";
    first = false;
    os << line;
  };
  char buf[320];

  std::vector<bool> named(static_cast<size_t>(engine_pid) + 1, false);
  for (const Event& e : events) {
    const uint32_t pid = e.node == kEngineNode ? engine_pid : e.node;
    if (named[pid]) continue;
    named[pid] = true;
    if (pid == engine_pid)
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%" PRIu32
                    ",\"args\":{\"name\":\"sim engine\"}}",
                    pid);
    else
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%" PRIu32
                    ",\"args\":{\"name\":\"node %" PRIu32 "\"}}",
                    pid, pid);
    emit(buf);
    for (int t = 0; t < kTrackCount; ++t) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%" PRIu32
                    ",\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                    pid, t, trackName(static_cast<Track>(t)));
      emit(buf);
    }
  }

  for (uint32_t idx : order) {
    const Event& e = events[idx];
    const CatInfo& info = catInfo(e.cat);
    const uint32_t pid = e.node == kEngineNode ? engine_pid : e.node;
    const double ts_us = static_cast<double>(e.ts) / 1000.0;
    int n = std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"pid\":%" PRIu32
        ",\"tid\":%d,\"ts\":%.3f",
        info.name, trackName(e.track), phaseChar(e.phase), pid,
        static_cast<int>(e.track), ts_us);
    if (e.phase == Phase::kInstant)
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                         ",\"s\":\"t\"");
    // Flow binding: net-track events sharing a wire correlation id are
    // connected with arrows in the viewer. Sends and retransmissions start
    // (or continue) the flow; delivers and drops terminate a step of it.
    if (e.corr != kNoCorr) {
      const bool out = e.cat == Cat::kSend || e.cat == Cat::kRetransmit;
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                         ",\"bind_id\":\"0x%" PRIx64 "\",\"%s\":true",
                         e.corr, out ? "flow_out" : "flow_in");
    }
    // End events inherit the begin's args in the viewer; skip re-encoding.
    if (e.phase != Phase::kEnd && info.arg0) {
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                         ",\"args\":{\"%s\":%" PRIu64, info.arg0, e.a0);
      if (info.arg1)
        n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                           ",\"%s\":%" PRIu64, info.arg1, e.a1);
      // kDrop's correlation id carries the dropped frame's kind; decode it
      // so drops are attributable per class without chasing the flow.
      if (e.cat == Cat::kDrop && e.corr != kNoCorr)
        n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                           ",\"kind\":%u",
                           static_cast<unsigned>(corrKind(e.corr)));
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n), "}");
    }
    std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n), "}");
    emit(buf);
  }

  // Counter tracks: one per (node, metric), already in timestamp order
  // within each series (the sampler emits rows tick by tick). Counter
  // events are process-scoped, so no tid is needed.
  if (metrics) {
    for (const MetricSample& s : metrics->samples()) {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%" PRIu32
                    ",\"ts\":%.3f,\"args\":{\"value\":%" PRId64 "}}",
                    metricInfo(s.metric).name, s.node,
                    static_cast<double>(s.ts) / 1000.0, s.value);
      emit(buf);
    }
  }
  os << "\n]}\n";
}

}  // namespace vodsm::obs
