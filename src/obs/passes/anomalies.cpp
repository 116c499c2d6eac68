// Network-anomaly detectors: partitions (a blackout window in which every
// drop involves one node) and retransmission storms (loss-triggered RTO
// stalls). Both build on the shared drop-window detector in common.hpp so a
// partition's own drops are claimed once: flows dropped inside the
// partition window are excluded from the storm pass, keeping the partition
// finding ranked above the generic loss symptom it causes.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/passes/common.hpp"

namespace vodsm::obs::passes {

void partition(const DiagnosisInput& in, std::vector<Finding>& out) {
  if (in.finish <= 0) return;
  const DropWindow w = detectDropWindow(in);
  if (!w.found) return;
  const sim::Time recovery = partitionRecoveryEnd(in, w);

  Finding f;
  f.cat = FindingCat::kPartition;
  f.severity = clamp01(static_cast<double>(recovery - w.t0) /
                       static_cast<double>(in.finish));
  f.location = "node " + std::to_string(w.node) + " cut off [" +
               fmtSecs(w.t0) + ", " + fmtSecs(w.t1) + "]";
  f.node = w.node;
  f.window_begin = w.t0;
  f.window_end = w.t1;
  f.evidence = std::to_string(w.involved) + " of " +
               std::to_string(w.total) +
               " dropped frames cross node " + std::to_string(w.node) +
               " inside a " + fmtDur(w.t1 - w.t0) +
               " window; the last affected flow recovered at " +
               fmtSecs(recovery);
  f.remedy = "the drop pattern matches a network partition isolating the "
             "node; check its link/switch, and lower the transport RTO so "
             "recovery stalls shrink";
  out.push_back(std::move(f));
}

void retransmitStorm(const DiagnosisInput& in, std::vector<Finding>& out) {
  if (in.finish <= 0) return;
  const DropWindow w = detectDropWindow(in);
  const auto& events = in.trace.events();

  // Clean-flow median latency is the baseline for "how long should a
  // frame take".
  std::vector<sim::Time> clean;
  for (const Flow& fl : in.flows.flows)
    if (fl.retransmits == 0 && fl.drops == 0 && fl.send >= 0 &&
        fl.deliver >= 0)
      clean.push_back(events[static_cast<size_t>(fl.deliver)].ts -
                      events[static_cast<size_t>(fl.send)].ts);
  const sim::Time baseline = medianOf(clean);

  uint64_t affected = 0, retransmits = 0, dropped = 0;
  sim::Time excess = 0;
  std::set<uint64_t> affected_corrs;
  for (const Flow& fl : in.flows.flows) {
    if (fl.retransmits == 0 && fl.drops == 0) continue;
    if (w.found && w.corrs.count(fl.corr)) continue;  // partition's claim
    affected++;
    retransmits += fl.retransmits;
    dropped += fl.drops;
    affected_corrs.insert(fl.corr);
    if (fl.send >= 0 && fl.deliver >= 0) {
      const sim::Time lat = events[static_cast<size_t>(fl.deliver)].ts -
                            events[static_cast<size_t>(fl.send)].ts;
      if (lat > baseline) excess += lat - baseline;
    }
  }
  if (affected < 2 || excess <= 0) return;

  // If one link owns at least half the affected drops, name it.
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> links;
  uint64_t link_drops = 0;
  for (const Event& ev : in.trace.events()) {
    if (ev.cat != Cat::kDrop || ev.phase != Phase::kInstant) continue;
    if (!affected_corrs.count(ev.corr)) continue;
    links[{static_cast<uint32_t>(ev.a0), ev.node}]++;
    link_drops++;
  }
  std::pair<uint32_t, uint32_t> top_link{0, 0};
  uint64_t top_count = 0;
  for (const auto& [link, cnt] : links)
    if (cnt > top_count) {
      top_link = link;
      top_count = cnt;
    }

  Finding f;
  f.cat = FindingCat::kRetransmitStorm;
  f.severity = clamp01(static_cast<double>(excess) /
                       static_cast<double>(in.finish));
  if (link_drops >= 4 && 2 * top_count >= link_drops) {
    f.location = "link node " + std::to_string(top_link.first) +
                 " -> node " + std::to_string(top_link.second);
    f.node = top_link.second;
  } else {
    f.location = "cluster-wide (" + std::to_string(affected) + " flows)";
  }
  f.evidence = std::to_string(affected) + " flows saw " +
               std::to_string(retransmits) + " retransmissions and " +
               std::to_string(dropped) +
               " drops; their delivery ran a combined " + fmtDur(excess) +
               " over the clean median latency of " + fmtDur(baseline);
  f.remedy = "loss is triggering retransmit-timer stalls; improve link "
             "quality, and lower the RTO or add negative acks so a drop "
             "costs less than a full timeout";
  out.push_back(std::move(f));
}

}  // namespace vodsm::obs::passes
