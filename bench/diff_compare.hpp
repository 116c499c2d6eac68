// The comparison core of bench_diff, header-only so unit tests can drive
// it directly (tests/test_bench_tools.cpp) while the bench_diff binary
// stays a thin main().
//
// Contract (see bench_diff.cpp for the CLI story):
//   * every field compares EXACTLY, except
//   * host-timing keys get a ratio tolerance with an absolute floor, may be
//     present in only one file, and count as host-timing failures, never
//     as simulated drift, and
//   * ignored keys ("jobs", "host") never compare at all —
//     they describe the machine that ran the suite, not the simulation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace vodsm::bench::diff {

// Profile file name for a cell id: '/' becomes '_' and ".profile.json" is
// appended ("IS/LRC_d/16p" -> "IS_LRC_d_16p.profile.json"). Shared between
// the table binaries (which write per-cell profiles under --profiles) and
// bench_diff --explain (which reads them back for drifted cells).
inline std::string cellProfileFileName(const std::string& cell_id) {
  std::string name = cell_id;
  for (char& c : name)
    if (c == '/') c = '_';
  return name + ".profile.json";
}

struct Config {
  // A host timing passes when the larger value is within `host_tolerance`
  // times the smaller, or both are under the floor. Generous by default:
  // the gate is for simulated drift, not for benchmarking the host.
  double host_tolerance = 25.0;
  double host_floor_seconds = 5.0;
};

struct Report {
  int mismatches = 0;     // simulated fields that drifted
  int host_failures = 0;  // host timings beyond the tolerance
  int host_checked = 0;
  static constexpr int kMaxPrinted = 50;
  std::ostream* out = &std::cout;
  // Ids of the cells ("$.tables[].cells[]" objects, recognized by their
  // string "id" member) whose simulated fields drifted, in first-drift
  // order. bench_diff --explain uses these to pick which per-cell profile
  // pairs to difference.
  std::vector<std::string> drifted_cells;
  std::string current_cell;  // set while comparing inside a cell object

  // A simulated field drifted.
  void fail(const std::string& path, const std::string& why) {
    print(path, why);
    ++mismatches;
    if (!current_cell.empty() &&
        std::find(drifted_cells.begin(), drifted_cells.end(),
                  current_cell) == drifted_cells.end())
      drifted_cells.push_back(current_cell);
  }
  // A host timing left its tolerance: a failure, but no simulated drift.
  void hostFail(const std::string& path, const std::string& why) {
    print(path, why);
    ++host_failures;
  }

 private:
  void print(const std::string& path, const std::string& why) {
    if (printed < kMaxPrinted)
      *out << "  " << path << ": " << why << "\n";
    else if (printed == kMaxPrinted)
      *out << "  ... further mismatches suppressed\n";
    ++printed;
  }
  int printed = 0;
};

inline bool isHostTimingKey(const std::string& key) {
  return key == "host_seconds" || key == "wall_seconds" ||
         key == "serial_wall_seconds" || key == "speedup_vs_serial";
}

// Host run-shape and provenance keys: the job count and machine identity
// never change simulated output, so neither presence nor value compares.
// "axes" is a cell's coordinate record (model_suite input), not a
// simulated result, so a baseline from before the axis sweeps still gates
// exactly on every field it does have.
inline bool isIgnoredKey(const std::string& key) {
  return key == "jobs" || key == "host" || key == "axes";
}

inline std::string describe(const support::Json& v) {
  using support::Json;
  switch (v.type()) {
    case Json::Type::kNull: return "null";
    case Json::Type::kBool: return v.asBool() ? "true" : "false";
    case Json::Type::kString: return "\"" + v.asString() + "\"";
    case Json::Type::kNumber: {
      std::ostringstream os;
      os << v.asNumber();
      return os.str();
    }
    case Json::Type::kArray:
      return "array[" + std::to_string(v.items().size()) + "]";
    case Json::Type::kObject:
      return "object{" + std::to_string(v.members().size()) + "}";
  }
  return "?";
}

inline void checkHostTiming(const support::Json& base,
                            const support::Json& cur,
                            const std::string& path, const Config& cfg,
                            Report& rep) {
  using support::Json;
  if (base.type() != Json::Type::kNumber ||
      cur.type() != Json::Type::kNumber) {
    rep.fail(path, "host-timing field is not a number");
    return;
  }
  ++rep.host_checked;
  const double a = base.asNumber();
  const double b = cur.asNumber();
  if (a <= cfg.host_floor_seconds && b <= cfg.host_floor_seconds) return;
  const double lo = std::min(a, b);
  const double hi = std::max(a, b);
  if (lo > 0 && hi / lo <= cfg.host_tolerance) return;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "host timing drifted beyond %gx: baseline %g vs current %g",
                cfg.host_tolerance, a, b);
  rep.hostFail(path, buf);
}

inline void compare(const support::Json& base, const support::Json& cur,
                    const std::string& path, const Config& cfg, Report& rep) {
  using support::Json;
  if (base.type() != cur.type()) {
    rep.fail(path, describe(base) + " became " + describe(cur));
    return;
  }
  switch (base.type()) {
    case Json::Type::kNull:
      return;
    case Json::Type::kBool:
      if (base.asBool() != cur.asBool())
        rep.fail(path, describe(base) + " became " + describe(cur));
      return;
    case Json::Type::kString:
      if (base.asString() != cur.asString())
        rep.fail(path, describe(base) + " became " + describe(cur));
      return;
    case Json::Type::kNumber:
      // Exact. Both files come from the same fixed-precision writer, so a
      // deterministic simulation reproduces the byte-identical text and
      // therefore the identical double.
      if (base.asNumber() != cur.asNumber())
        rep.fail(path, describe(base) + " became " + describe(cur));
      return;
    case Json::Type::kArray: {
      const auto& a = base.items();
      const auto& b = cur.items();
      if (a.size() != b.size()) {
        rep.fail(path, "array length " + std::to_string(a.size()) +
                           " became " + std::to_string(b.size()));
        return;
      }
      for (size_t i = 0; i < a.size(); ++i)
        compare(a[i], b[i], path + "[" + std::to_string(i) + "]", cfg, rep);
      return;
    }
    case Json::Type::kObject: {
      // Cell objects carry a string "id"; remember it while comparing the
      // subtree so fail() can attribute drift to the cell.
      const Json* id = base.find("id");
      const bool is_cell =
          id != nullptr && id->type() == Json::Type::kString;
      const std::string saved_cell = rep.current_cell;
      if (is_cell) rep.current_cell = id->asString();
      for (const auto& [key, bval] : base.members()) {
        if (isIgnoredKey(key)) continue;
        const std::string sub = path + "." + key;
        const Json* cval = cur.find(key);
        if (!cval) {
          // Host timings are run-shape dependent (e.g. serial_wall_seconds
          // only exists under --compare-serial); absence is not drift.
          if (!isHostTimingKey(key)) rep.fail(sub, "key disappeared");
          continue;
        }
        if (isHostTimingKey(key))
          checkHostTiming(bval, *cval, sub, cfg, rep);
        else
          compare(bval, *cval, sub, cfg, rep);
      }
      for (const auto& [key, cval] : cur.members()) {
        (void)cval;
        if (isIgnoredKey(key) || isHostTimingKey(key)) continue;
        if (!base.find(key)) rep.fail(path + "." + key, "key appeared");
      }
      rep.current_cell = saved_cell;
      return;
    }
  }
}

}  // namespace vodsm::bench::diff
