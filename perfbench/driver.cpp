// Host-cost benchmark driver: one pass over one probe cell in a fresh
// process.
//
// perfbench/run.py starts this binary once per pass so that each pass's
// peak RSS and CPU time come from wait4() on its own process. A pass times
// calls into the simulator's public functions only; nothing here changes
// what the program computes. The paper_tables workload times the real
// table_suite binary instead; this driver only supplies that workload's
// per-layer probe.
//
//   perfbench_driver --probe=is|gauss --seed=N --trace=0|1
//                    --root=DIR --out=DIR
//   perfbench_driver --host    # provenance only; refuses a checked build
//
// Probe cells (see perfbench/README.md for why each one):
//   is     IS/VC_sd/128p from BENCH_scaling.json: the is_vcsd_128p workload
//   gauss  Gauss/LRC_d/32p from BENCH_tables.json: the heaviest cell of
//          paper_tables, which stands in for it in the per-layer metrics
//
// Once set-up is done, the driver writes "perfbench_driver: setup done" to
// stderr; run.py times set-up from spawn to that line. Output: one JSON
// document on stdout. --trace=1 additionally reruns the cell under a
// driver-owned TraceRecorder and MetricsRegistry, times each obs fold over
// that trace, reports the per-layer metrics, and writes the spans and
// counts to DIR/trace-<probe>-seed<N>.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/gauss.hpp"
#include "apps/is.hpp"
#include "bench/diff_compare.hpp"
#include "bench/paper_params.hpp"
#include "bench/tables.hpp"
#include "obs/breakdown.hpp"
#include "obs/critical_path.hpp"
#include "obs/diagnose.hpp"
#include "obs/metrics.hpp"
#include "obs/page_heat.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/json_writer.hpp"

// A sanitizer or assertion build times different code from the one users
// run, so the driver refuses to produce numbers from it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(NDEBUG) || defined(_GLIBCXX_ASSERTIONS) ||             \
    defined(_GLIBCXX_DEBUG)
constexpr bool kTimedBuild = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kTimedBuild = false;
#else
constexpr bool kTimedBuild = true;
#endif
#else
constexpr bool kTimedBuild = true;
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace vodsm;
using Clock = std::chrono::steady_clock;

// Seed 0 reproduces the committed baselines' inputs; seed s offsets every
// input seed by s.
constexpr uint64_t kDefaultSeed = 0;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- spans ---------------------------------------------------------------

// Driver-side spans: name, parent, start and end in seconds since the
// driver's origin.
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  template <typename F>
  double time(const std::string& name, F&& body) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, at(Clock::now()), -1});
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    const auto t0 = Clock::now();
    body();
    const double d = secondsSince(t0);
    stack_.pop_back();
    spans_[static_cast<size_t>(id)].end = at(Clock::now());
    return d;
  }

  void write(support::JsonWriter& w) const {
    w.beginArray();
    for (const Span& s : spans_) {
      w.beginObject();
      w.key("name").value(s.name);
      w.key("parent").value(s.parent);
      w.key("start_s").value(s.start, "%.9f");
      w.key("end_s").value(s.end, "%.9f");
      w.endObject();
    }
    w.endArray();
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double start;
    double end;
  };

  double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// --- baselines -----------------------------------------------------------

support::Json loadJson(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  VODSM_CHECK_MSG(f.good(), "cannot read " + path.string());
  std::ostringstream buf;
  buf << f.rdbuf();
  return support::Json::parse(buf.str());
}

const support::Json* findCell(const support::Json& doc,
                              const std::string& id) {
  for (const support::Json& table : doc.at("tables").items())
    for (const support::Json& cell : table.at("cells").items())
      if (cell.at("id").asString() == id) return &cell;
  return nullptr;
}

// Exact comparison, with bench_diff's comparator, of every simulated field
// `r` writes into a BENCH_*.json cell against the committed cell. Fields
// the run did not produce (an untraced run has no breakdown) are skipped;
// every field it did produce must be in the baseline. Returns the number
// of mismatching fields.
int driftFromBaseline(const support::Json& base_cell, const std::string& id,
                      const harness::RunResult& r) {
  bench::TableSpec spec;
  spec.name = "perfbench";
  spec.cells.emplace_back(id, nullptr);
  bench::SpecRun run;
  run.results = {r};
  run.cell_host_seconds = {0.0};
  std::ostringstream os;
  bench::writeTablesJson(os, {spec}, {run}, bench::Options{}, 1, 0, 0);
  const support::Json doc = support::Json::parse(os.str());
  const support::Json& cell =
      doc.at("tables").items().at(0).at("cells").items().at(0);
  std::ostringstream sink;
  bench::diff::Report report;
  report.out = &sink;
  for (const auto& [key, value] : cell.members()) {
    if (bench::diff::isIgnoredKey(key) || bench::diff::isHostTimingKey(key))
      continue;
    const support::Json* b = base_cell.find(key);
    if (b == nullptr) {
      report.fail("$." + key, "not in the committed cell");
      continue;
    }
    bench::diff::compare(*b, value, "$." + key, bench::diff::Config{},
                         report);
  }
  return report.mismatches;
}

// --- probe cells -----------------------------------------------------------

// A single cell built from its app's public entry point, so the driver can
// own its observers, plus the app's serial reference for its output.
struct ProbeRun {
  harness::RunResult result;
  std::vector<int64_t> rank_sums;  // IS
  double checksum = 0;             // Gauss
};

struct Probe {
  std::string id;
  std::string baseline_file;
  harness::RunConfig config;
  std::function<ProbeRun(const harness::RunConfig&)> run;
  std::function<bool(const ProbeRun&)> matches_reference;
};

// IS/VC_sd/128p exactly as table11_scaling builds it (star fabric,
// centralized barrier), with the key and run seeds offset by `seed`.
Probe isProbe(uint64_t seed) {
  apps::IsParams params = bench::isParams(/*full=*/false);
  params.key_seed += seed;
  Probe p;
  p.id = "IS/VC_sd/128p";
  p.baseline_file = "BENCH_scaling.json";
  p.config = bench::baseConfig(dsm::Protocol::kVcSd, 128);
  p.config.seed += seed;
  p.run = [params](const harness::RunConfig& c) {
    apps::IsRun r = apps::runIs(c, params, apps::IsVariant::kVopp);
    return ProbeRun{std::move(r.result), std::move(r.rank_sums), 0};
  };
  p.matches_reference = [params](const ProbeRun& r) {
    return r.rank_sums == apps::isSerialRankSums(params, 128);
  };
  return p;
}

// Gauss/LRC_d/32p exactly as table5 builds it, with the matrix and run
// seeds offset by `seed`.
Probe gaussProbe(uint64_t seed) {
  apps::GaussParams params = bench::gaussParams(/*full=*/false);
  params.seed += seed;
  Probe p;
  p.id = "Gauss/LRC_d/32p";
  p.baseline_file = "BENCH_tables.json";
  p.config = bench::baseConfig(dsm::Protocol::kLrcDiff, 32);
  p.config.seed += seed;
  p.run = [params](const harness::RunConfig& c) {
    apps::GaussRun r =
        apps::runGauss(c, params, apps::GaussVariant::kTraditional);
    return ProbeRun{std::move(r.result), {}, r.checksum};
  };
  p.matches_reference = [params](const ProbeRun& r) {
    return r.checksum == apps::gaussSerialChecksum(params);
  };
  return p;
}

// --- pass ------------------------------------------------------------------

// Host provenance printed beside the numbers. table_suite is built by the
// same package with the same flags, so this describes its build too.
void writeHost(support::JsonWriter& w) {
  w.beginObject();
  w.key("cores").value(static_cast<int>(std::thread::hardware_concurrency()));
  w.key("compiler").value(
#if defined(__clang_version__)
      "clang " __clang_version__
#else
      "gcc " __VERSION__
#endif
  );
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.endObject();
}

struct Args {
  std::string probe;
  uint64_t seed = kDefaultSeed;
  bool trace = false;
  std::filesystem::path root = ".";
  std::filesystem::path out = ".";
  bool host_only = false;
};

struct LayerMetric {
  std::string name;
  double value;
  std::string unit;
};

class Pass {
 public:
  Pass(const Args& args, Clock::time_point origin)
      : args_(args), spans_(origin) {}

  int run() {
    if (args_.probe == "is") {
      probe_ = isProbe(args_.seed);
    } else if (args_.probe == "gauss") {
      probe_ = gaussProbe(args_.seed);
    } else {
      std::cerr << "unknown probe '" << args_.probe << "'\n";
      return 2;
    }
    spans_.time("setup", [&] { setup(); });
    std::cerr << "perfbench_driver: setup done" << std::endl;
    spans_.time("cell " + probe_.id, [&] { sweep(); });
    spans_.time("verify", [&] { verify(); });
    if (args_.trace && failures_.empty())
      spans_.time("probe", [&] { tracedProbe(); });
    spans_.time("emit", [&] { emit(); });
    return 0;
  }

 private:
  void setup() {
    const support::Json baseline = loadJson(args_.root / probe_.baseline_file);
    const support::Json* cell = findCell(baseline, probe_.id);
    VODSM_CHECK_MSG(cell != nullptr,
                    probe_.id + " is not in " + probe_.baseline_file);
    probe_cell_ = *cell;
  }

  void fail(const std::string& why) {
    failures_.push_back(probe_.id + ": " + why);
  }

  void sweep() {
    const auto t0 = Clock::now();
    try {
      probe_run_ = probe_.run(probe_.config);
    } catch (const std::exception& e) {
      fail(std::string("crashed: ") + e.what());
    }
    cell_s_ = secondsSince(t0);
  }

  // The serial reference at every seed; the committed cell only for the
  // inputs it was made from.
  void verify() {
    if (!failures_.empty()) return;
    bool ref_ok = false;
    reference_s_ = spans_.time("reference", [&] {
      ref_ok = probe_.matches_reference(probe_run_);
    });
    if (!ref_ok) fail("differs from the serial reference");
    if (args_.seed == kDefaultSeed) {
      const int drift =
          driftFromBaseline(probe_cell_, probe_.id, probe_run_.result);
      if (drift > 0)
        fail(std::to_string(drift) + " simulated fields differ from " +
             probe_.baseline_file);
    }
  }

  // Reruns the cell with a driver-owned recorder and registry, then times
  // each obs fold over the trace.
  void tracedProbe() {
    obs::TraceRecorder rec;
    obs::MetricsRegistry mets;
    harness::RunConfig cfg = probe_.config;
    cfg.trace = &rec;
    cfg.metrics = &mets;
    ProbeRun traced;
    const double traced_s = spans_.time("cell.traced " + probe_.id, [&] {
      traced = probe_.run(cfg);
    });
    const obs::MetricsSummary summary = mets.summary();
    const int n = probe_.config.nprocs;
    const sim::Time finish =
        std::llround(traced.result.seconds * static_cast<double>(sim::kSecond));
    double folds_s = 0;
    const auto fold = [&](const char* name, auto&& body) {
      const double s = spans_.time(std::string("obs.") + name, body);
      folds_s += s;
      layer_.push_back({std::string("obs.") + name + "_s", s, "s"});
    };
    fold("breakdown", [&] { (void)obs::foldBreakdown(rec, n, finish); });
    fold("critpath", [&] { (void)obs::computeCriticalPath(rec, n, finish); });
    fold("pageheat", [&] { (void)obs::foldPageHeat(rec); });
    fold("profile",
         [&] { (void)obs::buildRunProfile(rec, n, finish, &summary); });
    fold("diagnose", [&] { (void)obs::diagnose(rec, n, finish, &summary); });

    // The traced rerun must reproduce the untraced one, and its extra
    // fields (breakdown, memory peaks) must match the committed cell.
    spans_.time("verify.traced", [&] {
      const harness::RunResult& a = probe_run_.result;
      const harness::RunResult& b = traced.result;
      if (a.seconds != b.seconds || a.net.messages != b.net.messages ||
          a.net.payload_bytes != b.net.payload_bytes)
        fail("traced rerun differs from the untraced run");
      if (!probe_.matches_reference(traced))
        fail("traced rerun differs from the serial reference");
      if (args_.seed == kDefaultSeed &&
          driftFromBaseline(probe_cell_, probe_.id, b) > 0)
        fail("traced rerun differs from " + probe_.baseline_file);
    });

    uint64_t events = 0, twins = 0, diff_created = 0, diff_applied = 0;
    for (const obs::Event& e : rec.events()) {
      if (e.cat == obs::Cat::kEngineRun && e.phase == obs::Phase::kEnd)
        events += e.a0;
      else if (e.cat == obs::Cat::kTwin)
        ++twins;
      else if (e.cat == obs::Cat::kDiffCreate && e.phase == obs::Phase::kEnd)
        diff_created += e.a1;
      else if (e.cat == obs::Cat::kDiffApply)
        diff_applied += e.a1;
    }
    const harness::RunResult& r = traced.result;
    const auto count = [](uint64_t v) { return static_cast<double>(v); };
    const auto mb = [](uint64_t bytes) {
      return static_cast<double>(bytes) / 1e6;
    };
    const double msgs = std::max(1.0, count(r.net.messages));
    const double untraced_s = cell_s_;
    layer_.insert(
        layer_.end(),
        {
            {"vopp.run_s", untraced_s, "s"},
            {"sim.events", count(events), "count"},
            {"sim.ns_per_event",
             untraced_s * 1e9 / std::max(1.0, count(events)), "ns"},
            {"net.messages", count(r.net.messages), "count"},
            {"net.frames_delivered", count(r.net.frames_delivered), "count"},
            {"net.acks", count(r.net.acks), "count"},
            {"net.payload_mb", mb(r.net.payload_bytes), "MB"},
            {"net.retransmissions", count(r.net.retransmissions), "count"},
            {"net.frames_dropped",
             count(r.net.frames_dropped_overflow +
                   r.net.frames_dropped_random + r.net.frames_dropped_fault),
             "count"},
            {"net.us_per_message", untraced_s * 1e6 / msgs, "us"},
            {"dsm.page_faults", count(r.dsm.page_faults), "count"},
            {"dsm.acquires", count(r.dsm.acquires), "count"},
            {"dsm.barriers", count(r.dsm.barriers), "count"},
            {"dsm.diff_requests", count(r.dsm.diff_requests), "count"},
            {"dsm.notices_recorded", count(r.dsm.notices_recorded), "count"},
            {"mem.twins", count(twins), "count"},
            {"mem.diffs_created", count(r.dsm.diffs_created), "count"},
            {"mem.diffs_applied", count(r.dsm.diffs_applied), "count"},
            {"mem.diff_mb_created", mb(diff_created), "MB"},
            {"mem.diff_mb_applied", mb(diff_applied), "MB"},
            {"mem.peak_twin_mb",
             mb(static_cast<uint64_t>(
                 summary.maxPeak(obs::Metric::kTwinBytes))),
             "MB"},
            {"mem.peak_diff_mb",
             mb(static_cast<uint64_t>(
                 summary.maxPeak(obs::Metric::kDiffStoreBytes))),
             "MB"},
            {"obs.trace_events", count(rec.size()), "count"},
            {"obs.trace_mb", mb(rec.size() * sizeof(obs::Event)), "MB"},
            {"obs.record_overhead_s", traced_s - untraced_s, "s"},
            // What a fully observed cell costs against an unobserved one.
            {"obs.traced_over_untraced", (traced_s + folds_s) / untraced_s,
             "ratio"},
            {"apps.reference_s", reference_s_, "s"},
        });
  }

  void emit() {
    std::ostringstream doc;
    support::JsonWriter w(doc);
    w.beginObject();
    w.key("probe").value(probe_.id);
    w.key("seed").value(static_cast<long long>(args_.seed));
    w.key("host");
    writeHost(w);
    w.key("cells_total").value(1);
    w.key("cells_failed").value(failures_.empty() ? 0 : 1);
    w.key("failures").beginArray();
    for (const std::string& f : failures_) w.value(f);
    w.endArray();
    w.key("sim_messages")
        .value(static_cast<long long>(probe_run_.result.net.messages));
    w.key("cell_host_s").value(cell_s_);
    if (args_.trace) {
      w.key("layer").beginObject();
      for (const LayerMetric& m : layer_) {
        w.key(m.name).beginObject();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.endObject();
      }
      w.endObject();
      w.key("spans");
      spans_.write(w);
    }
    w.endObject();
    doc << "\n";
    if (args_.trace) {
      std::filesystem::create_directories(args_.out);
      std::ofstream(args_.out / ("trace-" + args_.probe + "-seed" +
                                 std::to_string(args_.seed) + ".json"))
          << doc.str();
    }
    std::cout << doc.str();
  }

  const Args& args_;
  Spans spans_;
  Probe probe_;
  ProbeRun probe_run_;
  support::Json probe_cell_;
  double cell_s_ = 0;
  double reference_s_ = 0;
  std::vector<std::string> failures_;
  std::vector<LayerMetric> layer_;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const size_t n = std::char_traits<char>::length(flag);
      return s.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    try {
      if (const char* v = value("--probe=")) a.probe = v;
      else if (const char* v = value("--seed=")) a.seed = std::stoull(v);
      else if (const char* v = value("--trace=")) a.trace = std::stoi(v) != 0;
      else if (const char* v = value("--root=")) a.root = v;
      else if (const char* v = value("--out=")) a.out = v;
      else if (s == "--host") a.host_only = true;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return a.host_only || !a.probe.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const auto origin = Clock::now();
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::cerr << "usage: " << argv[0]
              << " --probe=is|gauss [--seed=N] [--trace=0|1] [--root=DIR]"
                 " [--out=DIR] | --host\n";
    return 2;
  }
  if (!kTimedBuild) {
    std::cerr << "perfbench_driver: refusing to time a sanitizer or "
                 "assertion build (" PERFBENCH_BUILD_TYPE ")\n";
    return 3;
  }
  if (args.host_only) {
    support::JsonWriter w(std::cout);
    writeHost(w);
    std::cout << "\n";
    return 0;
  }
  try {
    return Pass(args, origin).run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
