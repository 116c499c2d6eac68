// Persisted run profiles: a compact, deterministic, committable summary of
// one run, assembled from the run's trace folds (RunFolds below) and
// written as byte-stable JSON.
//
// A RunProfile holds bounded aggregates only — never raw events:
//
//   * the per-node five-bucket time breakdown (obs/breakdown.hpp),
//   * per-barrier-episode arrival timelines (first / next-slowest / slowest
//     arrival and release, from the run DAG's matched barrier waits),
//   * the exact critical-path attribution (per-category totals that
//     partition the makespan to the nanosecond, plus the top slices),
//   * the page-heat table (hottest pages by fault time),
//   * metric peaks and integrals (obs/metrics.hpp summary rows folded
//     across nodes), and
//   * per-class wire counters (filled by the vopp layer, which sees
//     net::NetStats; obs itself stays below net).
//
// All times are integer nanoseconds, so two profiles of the same program
// can be differenced exactly (obs/profile_diff.hpp). The writer emits a
// fixed member order with explicit number formats and the loader reads the
// same schema back, so write -> load -> write is byte-identical — the
// profile can live in git and be compared across commits like
// BENCH_tables.json. Building a profile is pure post-processing: a
// profiled run is bit-identical to an unprofiled one.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/breakdown.hpp"
#include "obs/critical_path.hpp"
#include "obs/graph.hpp"
#include "obs/metrics.hpp"
#include "obs/page_heat.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "support/json.hpp"

namespace vodsm::obs {

// Wire message classes as stable profile keys, mirroring net::MsgClass
// order (the vopp layer asserts the mirror where it fills these, like
// WireClass in diagnose.hpp).
inline constexpr int kProfileClassCount = 8;
inline constexpr const char* kProfileClassName[kProfileClassCount] = {
    "acquire", "grant", "release", "diff_request",
    "diff_reply", "barrier", "data", "other",
};

// Bounds on the variable-size tables. A profile of any run stays a few KB:
// episodes and pages beyond the cap are dropped (the *_total counters keep
// the truncation visible), slices keep the heaviest attributions.
inline constexpr size_t kMaxProfileSlices = 48;
inline constexpr size_t kMaxProfileEpisodes = 512;
inline constexpr size_t kMaxProfilePages = 128;

// One barrier episode: the j-th arrival of every node at barrier `barrier`.
// `second` is the next-slowest arrival — the gap `last - second` is the
// episode's imbalance cost (see passes/imbalance.cpp).
struct ProfileEpisode {
  uint64_t barrier = 0;
  uint32_t episode = 0;
  uint32_t slow_node = 0;  // node of the slowest arrival
  sim::Time first = 0;     // earliest arrival
  sim::Time second = 0;    // next-slowest arrival
  sim::Time last = 0;      // slowest arrival
  sim::Time release = 0;   // latest wait end (release incorporated)

  sim::Time gap() const { return last - second; }
};

// Per-metric aggregate folded over nodes: max peak, summed final values,
// and the summed time-weighted means (the "integral" view of a gauge).
struct ProfileMetricRow {
  Metric metric = Metric::kTwinBytes;
  int64_t peak = 0;         // max over nodes
  int64_t final_total = 0;  // sum of final values
  double mean_total = 0;    // sum of time-weighted means
};

// Per-class slice of the transport counters (net::KindStats shape).
struct ProfileClass {
  uint64_t messages = 0;
  uint64_t payload_bytes = 0;
  uint64_t retransmissions = 0;
  uint64_t drops = 0;
};

struct RunProfile {
  bool on = false;
  std::string label;  // free text: cell id or runner title
  int nprocs = 0;
  sim::Time makespan = 0;

  std::vector<BucketSet> buckets;  // per node; each sums to makespan
  // Critical-path category totals; sum to makespan exactly (the invariant
  // the differential engine's exact partition rests on).
  sim::Time critpath[kPathCatCount] = {};
  std::vector<PathSlice> slices;  // heaviest attributions, nanos desc

  uint64_t episodes_total = 0;  // before the kMaxProfileEpisodes cap
  std::vector<ProfileEpisode> episodes;  // (barrier, episode) order

  uint64_t pages_total = 0;  // before the kMaxProfilePages cap
  std::vector<PageHeatRow> pages;  // hottest pages, stored in page order

  std::vector<ProfileMetricRow> metrics;  // touched metrics, enum order

  // Wire counters; has_net false when the run had no transport view (e.g.
  // a hand-built trace profile).
  bool has_net = false;
  ProfileClass classes[kProfileClassCount];
  uint64_t net_messages = 0;
  uint64_t net_payload_bytes = 0;
  uint64_t net_retransmissions = 0;
  uint64_t net_acks = 0;
  uint64_t net_ack_drops = 0;
  uint64_t net_frames_sent = 0;
  uint64_t net_frames_delivered = 0;

  bool enabled() const { return on; }
};

// The four folds of a recorded trace that every single-run report reads.
// A traced run builds them once (vopp::Cluster::result) and derives its
// breakdown, critical path, page heat, profile and diagnosis from them.
struct RunFolds {
  int nprocs = 0;
  sim::Time finish = 0;
  EventGraph graph;
  Breakdown breakdown;
  CriticalPath critpath;
  PageHeat pageheat;
};

// Builds the event graph once, folds the breakdown and the critical path
// from it, and runs foldPageHeat.
RunFolds foldRun(const TraceRecorder& trace, int nprocs, sim::Time finish);

// Assembles the fold-derived parts of a profile (buckets, critical path,
// episodes, pages, metrics), capping the tables at the kMaxProfile* bounds.
// The caller fills label and the net counters; vopp::Cluster::result()
// fills the counters and leaves the label to whoever writes the profile.
RunProfile buildRunProfile(const RunFolds& folds,
                           const MetricsSummary* metrics);

// Convenience: fold the trace, then assemble.
RunProfile buildRunProfile(const TraceRecorder& trace, int nprocs,
                           sim::Time finish, const MetricsSummary* metrics);

// Byte-stable JSON writer: fixed member order, integer nanoseconds,
// "%.17g" for the one double field, so equal profiles serialize to equal
// bytes on any host.
void writeRunProfileJson(std::ostream& os, const RunProfile& p);

// Parses a document written by writeRunProfileJson. Throws vodsm::Error on
// schema mismatch; write(load(write(p))) == write(p) byte-for-byte.
RunProfile loadRunProfile(const support::Json& doc);

// Convenience: read and parse a profile file. Throws vodsm::Error when the
// file is unreadable or malformed.
RunProfile loadRunProfileFile(const std::string& path);

}  // namespace vodsm::obs
