#include "obs/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "support/table.hpp"

namespace vodsm::obs {

int64_t MetricsSummary::maxPeak(Metric m) const {
  int64_t best = 0;
  for (const MetricSummaryRow& r : rows)
    if (r.metric == m) best = std::max(best, r.peak);
  return best;
}

int64_t MetricsSummary::totalFinal(Metric m) const {
  int64_t total = 0;
  for (const MetricSummaryRow& r : rows)
    if (r.metric == m) total += r.final_value;
  return total;
}

double MetricsSummary::meanLinkUtilization() const {
  if (nprocs <= 0 || finish <= 0) return 0;
  const double busy =
      static_cast<double>(totalFinal(Metric::kUplinkBusyNs)) +
      static_cast<double>(totalFinal(Metric::kDownlinkBusyNs));
  return busy / (2.0 * static_cast<double>(nprocs) *
                 static_cast<double>(finish));
}

void MetricsRegistry::startSampling(const sim::Engine& engine) {
  if (interval_ <= 0) return;
  engine_ = &engine;
  next_tick_ = engine.now() + interval_;
}

// The engine is past the next tick, and nothing changed since every event
// at a time <= that tick ran: record the tick. The ticks after it, up to
// the engine's time, have nothing new to record.
void MetricsRegistry::catchUp() {
  snapshot(next_tick_, /*force=*/false);
  const sim::Time behind = engine_->now() - next_tick_;
  next_tick_ += (behind + interval_ - 1) / interval_ * interval_;
}

void MetricsRegistry::snapshot(sim::Time ts, bool force) {
  for (uint32_t node = 0; node < nodes_.size(); ++node) {
    for (size_t m = 0; m < kMetricCount; ++m) {
      Series& s = nodes_[node][m];
      if (!s.touched) continue;
      if (!force && s.sampled_once && s.value == s.last_sampled) continue;
      samples_.push_back(
          MetricSample{ts, node, static_cast<Metric>(m), s.value});
      s.last_sampled = s.value;
      s.sampled_once = true;
    }
  }
}

void MetricsRegistry::closeRun(int nprocs, sim::Time finish) {
  if (closed_) return;
  closed_ = true;
  if (engine_ && engine_->now() > next_tick_) catchUp();
  engine_ = nullptr;
  nprocs_ = nprocs;
  // Lossy runs can carry metric updates past the last program clock (dead
  // retransmission timers fire after every node finished); never truncate
  // an integral below its own last update.
  for (const auto& node : nodes_)
    for (const Series& s : node) finish = std::max(finish, s.last_ts);
  finish_ = finish;
  for (auto& node : nodes_) {
    for (Series& s : node) {
      if (!s.touched || finish <= s.last_ts) continue;
      s.area += static_cast<__int128>(s.value) *
                static_cast<__int128>(finish - s.last_ts);
      s.last_ts = finish;
    }
  }
  if (interval_ > 0) snapshot(finish, /*force=*/true);
}

MetricsSummary MetricsRegistry::summary() const {
  MetricsSummary out;
  out.on = true;
  out.nprocs = nprocs_;
  out.finish = finish_;
  for (size_t m = 0; m < kMetricCount; ++m) {
    for (uint32_t node = 0; node < nodes_.size(); ++node) {
      const Series& s = nodes_[node][m];
      if (!s.touched) continue;
      MetricSummaryRow row;
      row.node = node;
      row.metric = static_cast<Metric>(m);
      row.peak = s.peak;
      row.peak_ts = s.peak_ts;
      row.final_value = s.value;
      row.mean = finish_ > 0 ? static_cast<double>(s.area) /
                                   static_cast<double>(finish_)
                             : 0;
      out.rows.push_back(row);
    }
  }
  return out;
}

void writeMetricsCsv(std::ostream& os, const MetricsRegistry& reg) {
  os << "t_seconds,node,metric,value\n";
  char buf[128];
  for (const MetricSample& s : reg.samples()) {
    std::snprintf(buf, sizeof(buf), "%.9f,%" PRIu32 ",%s,%" PRId64 "\n",
                  sim::toSeconds(s.ts), s.node, metricInfo(s.metric).name,
                  s.value);
    os << buf;
  }
}

void printMemstats(std::ostream& os, const MetricsSummary& s,
                   const std::string& title) {
  os << "\n" << title << "\n";
  TextTable t;
  t.header({"metric", "unit", "peak", "peak node", "peak t (ms)", "final sum",
            "mean"});
  char buf[64];
  for (size_t m = 0; m < kMetricCount; ++m) {
    const Metric metric = static_cast<Metric>(m);
    // Find the node holding the high-water mark; skip untouched metrics.
    const MetricSummaryRow* peak_row = nullptr;
    double mean_sum = 0;
    for (const MetricSummaryRow& r : s.rows) {
      if (r.metric != metric) continue;
      if (!peak_row || r.peak > peak_row->peak) peak_row = &r;
      mean_sum += r.mean;
    }
    if (!peak_row) continue;
    std::snprintf(buf, sizeof(buf), "%.3f",
                  sim::toSeconds(peak_row->peak_ts) * 1e3);
    t.rowv(metricInfo(metric).name, metricInfo(metric).unit, peak_row->peak,
           static_cast<uint64_t>(peak_row->node), std::string(buf),
           s.totalFinal(metric), mean_sum);
  }
  t.print(os);
  std::snprintf(buf, sizeof(buf), "%.4f", s.meanLinkUtilization() * 100.0);
  os << "mean link utilization: " << buf << "% over "
     << s.nprocs << " links, " << sim::toSeconds(s.finish) << " s\n";
}

}  // namespace vodsm::obs
