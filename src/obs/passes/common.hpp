// Shared helpers for the built-in diagnosis passes: deterministic number
// formatting (fixed precision, no locale) and small math utilities. Internal
// to src/obs/passes/ — not part of the diagnose.hpp API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/passes/passes.hpp"
#include "sim/time.hpp"

namespace vodsm::obs::passes {

inline double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

inline std::string fmtSecs(sim::Time t) { return fmtSeconds(t) + " s"; }

// Duration with a unit scaled to its magnitude (fixed precision per band,
// so output stays deterministic).
inline std::string fmtDur(sim::Time t) {
  if (t >= sim::msec(1000)) return fmtSecs(t);
  std::ostringstream os;
  os << std::fixed;
  if (t < sim::usec(1000))
    os << std::setprecision(2) << static_cast<double>(t) / 1e3 << " us";
  else
    os << std::setprecision(3) << static_cast<double>(t) / 1e6 << " ms";
  return os.str();
}

inline std::string fmtBytes(int64_t b) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  const double v = static_cast<double>(b);
  if (b < 64 * 1024) {
    os << v / 1024.0 << " KiB";
  } else if (b < 64 * 1024 * 1024) {
    os << v / (1024.0 * 1024.0) << " MiB";
  } else {
    os << v / (1024.0 * 1024.0 * 1024.0) << " GiB";
  }
  return os.str();
}

inline std::string fmtPct(double frac) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << frac * 100.0 << "%";
  return os.str();
}

inline std::string fmtTimes(double ratio) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << ratio << "x";
  return os.str();
}

// Median of a scratch copy; lower-middle element for even sizes, so one
// outlier among n >= 2 values never drags the reference point toward itself.
template <typename T>
T medianOf(std::vector<T> v) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  return v[(v.size() - 1) / 2];
}

// A partition window: a node such that (a) it is involved in at least
// three drops, (b) those drops span at most half the run, (c) at least 90%
// of all drops inside that span involve the node, and (d) the node's drops
// are at least half of all drops in the run. Uniform random loss fails (c)
// and (d); a real partition of one node satisfies all four. Shared between
// the partition pass (which reports it) and the storm/grant passes (which
// must not re-claim the stall it causes).
struct DropWindow {
  bool found = false;
  uint32_t node = 0;
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  uint64_t involved = 0;
  uint64_t total = 0;
  std::set<uint64_t> corrs;  // corr ids of the windowed drops
};

inline DropWindow detectDropWindow(const DiagnosisInput& in) {
  struct DropRec {
    sim::Time ts;
    uint32_t src;
    uint32_t dst;
    uint64_t corr;
  };
  DropWindow w;
  std::vector<DropRec> drops;
  for (const Event& ev : in.trace.events()) {
    if (ev.cat != Cat::kDrop || ev.phase != Phase::kInstant) continue;
    drops.push_back({ev.ts, static_cast<uint32_t>(ev.a0), ev.node, ev.corr});
  }
  w.total = drops.size();
  if (drops.size() < 3) return w;

  for (uint32_t n = 0; n < static_cast<uint32_t>(in.nprocs); ++n) {
    std::vector<const DropRec*> mine;
    for (const DropRec& d : drops)
      if (d.src == n || d.dst == n) mine.push_back(&d);
    if (mine.size() < 3 || 2 * mine.size() < drops.size()) continue;
    sim::Time t0 = mine.front()->ts, t1 = mine.front()->ts;
    for (const DropRec* d : mine) {
      t0 = std::min(t0, d->ts);
      t1 = std::max(t1, d->ts);
    }
    if (in.finish > 0 && t1 - t0 > in.finish / 2) continue;
    uint64_t in_window = 0;
    for (const DropRec& d : drops)
      if (d.ts >= t0 && d.ts <= t1) in_window++;
    if (10 * mine.size() < 9 * in_window) continue;  // < 90% consistency
    if (w.found && mine.size() <= w.involved) continue;
    w.found = true;
    w.node = n;
    w.t0 = t0;
    w.t1 = t1;
    w.involved = mine.size();
    w.corrs.clear();
    for (const DropRec* d : mine)
      if (d->corr != kNoCorr) w.corrs.insert(d->corr);
  }
  return w;
}

// When the window's last affected flow finally delivered; a flow that
// never delivered keeps the stall open until the run's finish.
inline sim::Time partitionRecoveryEnd(const DiagnosisInput& in,
                                      const DropWindow& w) {
  sim::Time recovery = w.t1;
  const auto& events = in.trace.events();
  for (uint64_t corr : w.corrs) {
    const Flow* fl = in.flows.find(corr);
    if (fl && fl->deliver >= 0)
      recovery =
          std::max(recovery, events[static_cast<size_t>(fl->deliver)].ts);
    else
      recovery = in.finish;
  }
  return recovery;
}

}  // namespace vodsm::obs::passes
