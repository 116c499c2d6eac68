#include "obs/breakdown.hpp"

#include <string>

#include "support/check.hpp"
#include "support/table.hpp"

namespace vodsm::obs {

Breakdown foldBreakdown(const EventGraph& graph, sim::Time finish) {
  VODSM_CHECK_MSG(graph.unmatched_spans == 0,
                  "trace has " << graph.unmatched_spans
                               << " unmatched span begins or ends");
  Breakdown out;
  out.run_time = finish;
  out.nodes.resize(graph.nodes.size());
  for (size_t n = 0; n < graph.nodes.size(); ++n) {
    const NodeTimeline& tl = graph.nodes[n];
    BucketSet& b = out.nodes[n];
    for (const Wait& w : tl.waits) {
      VODSM_CHECK_MSG(w.end >= w.begin, "trace span ends before it begins");
      (w.cat == Cat::kBarrierWait ? b.barrier_wait : b.acquire_wait) +=
          w.end - w.begin;
    }
    for (const LocalSpan& s : tl.spans) {
      VODSM_CHECK_MSG(s.end >= s.begin, "trace span ends before it begins");
      b.fault_diff += s.end - s.begin;
    }
    const sim::Time end = tl.program_end >= 0 ? tl.program_end : finish;
    b.idle = finish - end;
    b.compute = end - b.barrier_wait - b.acquire_wait - b.fault_diff;
    out.aggregate.add(b);
  }
  return out;
}

Breakdown foldBreakdown(const TraceRecorder& trace, int nprocs,
                        sim::Time finish) {
  return foldBreakdown(buildEventGraph(trace, nprocs), finish);
}

namespace {

std::string cell(sim::Time t, sim::Time total) {
  std::string secs = TextTable::format(sim::toSeconds(t));
  double pct = total > 0 ? 100.0 * static_cast<double>(t) /
                               static_cast<double>(total)
                         : 0.0;
  return secs + " (" + TextTable::format(pct) + "%)";
}

}  // namespace

void printBreakdown(std::ostream& os, const Breakdown& b,
                    const std::string& title) {
  os << "\n" << title << "\n";
  TextTable t;
  t.header({"node", "compute", "barrier wait", "acquire wait", "fault+diff",
            "idle", "total (s)"});
  auto row = [&](const std::string& label, const BucketSet& s,
                 sim::Time total) {
    t.row({label, cell(s.compute, total), cell(s.barrier_wait, total),
           cell(s.acquire_wait, total), cell(s.fault_diff, total),
           cell(s.idle, total), TextTable::format(sim::toSeconds(total))});
  };
  for (size_t n = 0; n < b.nodes.size(); ++n)
    row(std::to_string(n), b.nodes[n], b.run_time);
  row("all", b.aggregate,
      b.run_time * static_cast<sim::Time>(b.nodes.size()));
  t.print(os);
}

}  // namespace vodsm::obs
