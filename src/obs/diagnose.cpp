#include "obs/diagnose.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/passes/passes.hpp"
#include "support/json_writer.hpp"

namespace vodsm::obs {

const Flow* FlowFold::find(uint64_t corr) const {
  auto it = std::lower_bound(
      flows.begin(), flows.end(), corr,
      [](const Flow& f, uint64_t c) { return f.corr < c; });
  if (it == flows.end() || it->corr != corr) return nullptr;
  return &*it;
}

FlowFold foldFlows(const TraceRecorder& trace) {
  // Sorting (corr, event index) pairs makes each flow one run of its
  // events in recording order, and keeps the flow order deterministic.
  std::vector<std::pair<uint64_t, size_t>> wire;
  const EventLog& ev = trace.events();
  for (size_t i = 0; i < ev.size(); ++i) {
    const Event& e = ev[i];
    if (e.node == kEngineNode || e.corr == kNoCorr) continue;
    if (e.cat != Cat::kSend && e.cat != Cat::kDeliver &&
        e.cat != Cat::kRetransmit && e.cat != Cat::kDrop)
      continue;
    wire.emplace_back(e.corr, i);
  }
  std::sort(wire.begin(), wire.end());
  FlowFold out;
  for (const auto& [corr, i] : wire) {
    if (out.flows.empty() || out.flows.back().corr != corr)
      out.flows.push_back(Flow{.corr = corr});
    Flow& f = out.flows.back();
    const Cat cat = ev[i].cat;
    if (cat == Cat::kSend) {
      if (f.send < 0) f.send = static_cast<int64_t>(i);
    } else if (cat == Cat::kDeliver) {
      if (f.deliver < 0) f.deliver = static_cast<int64_t>(i);
    } else if (cat == Cat::kRetransmit) {
      f.retransmits++;
    } else {
      f.drops++;
    }
  }
  for (const Flow& f : out.flows)
    if (f.deliver >= 0 && f.send < 0) out.delivers_without_send++;
  return out;
}

Diagnosis diagnose(const TraceRecorder& trace, const RunFolds& folds,
                   const MetricsSummary* metrics,
                   const std::function<WireClass(uint64_t)>& classify,
                   const std::function<sim::Time(uint64_t)>& tx_time) {
  const FlowFold flows = foldFlows(trace);
  const passes::DiagnosisInput in{
      trace, folds.graph, folds.breakdown, folds.critpath, folds.pageheat,
      flows, metrics && metrics->enabled() ? metrics : nullptr, folds.nprocs,
      folds.finish, classify, tx_time};
  Diagnosis d;
  d.on = true;
  d.makespan = folds.finish;
  d.nprocs = folds.nprocs;
  for (passes::PassFn pass : passes::kPasses) pass(in, d.findings);
  rankFindings(d.findings);
  return d;
}

Diagnosis diagnose(const TraceRecorder& trace, int nprocs, sim::Time finish,
                   const MetricsSummary* metrics,
                   std::function<WireClass(uint64_t)> classify,
                   std::function<sim::Time(uint64_t)> tx_time) {
  return diagnose(trace, foldRun(trace, nprocs, finish), metrics, classify,
                  tx_time);
}

void rankFindings(std::vector<Finding>& findings) {
  for (Finding& f : findings) f.severity = std::clamp(f.severity, 0.0, 1.0);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.severity != b.severity) return a.severity > b.severity;
              if (a.cat != b.cat) return a.cat < b.cat;
              if (a.location != b.location) return a.location < b.location;
              if (a.node != b.node) return a.node < b.node;
              return a.id < b.id;
            });
}

void printFindings(std::ostream& os, const std::vector<Finding>& findings) {
  int rank = 0;
  for (const Finding& f : findings) {
    std::ostringstream sev;
    sev << std::fixed << std::setprecision(1) << std::setw(5)
        << f.severity * 100.0;
    os << "#" << ++rank << " [" << sev.str() << "%] "
       << findingCatName(f.cat) << ": " << f.location << "\n";
    os << "    evidence: " << f.evidence << "\n";
    os << "    remedy:   " << f.remedy << "\n";
  }
}

void printDiagnosis(std::ostream& os, const Diagnosis& d,
                    const std::string& title) {
  os << "\n" << title << "\n";
  os << "makespan " << fmtSeconds(d.makespan) << " s over " << d.nprocs
     << " nodes; " << d.findings.size()
     << (d.findings.size() == 1 ? " finding" : " findings") << "\n";
  if (d.findings.empty()) {
    os << "no significant pattern detected; the run looks healthy\n";
    return;
  }
  printFindings(os, d.findings);
}

void writeDiagnosisJson(std::ostream& os, const Diagnosis& d) {
  os << std::fixed << std::setprecision(6);
  os << "{\n";
  os << "  \"makespan_seconds\": " << sim::toSeconds(d.makespan) << ",\n";
  os << "  \"nprocs\": " << d.nprocs << ",\n";
  os << "  \"findings\": [";
  int rank = 0;
  for (const Finding& f : d.findings) {
    os << (rank == 0 ? "\n" : ",\n");
    os << "    {\n";
    os << "      \"rank\": " << ++rank << ",\n";
    os << "      \"category\": \"" << findingCatName(f.cat) << "\",\n";
    os << "      \"severity\": " << f.severity << ",\n";
    os << "      \"location\": \"" << support::jsonEscape(f.location)
       << "\",\n";
    os << "      \"node\": " << f.node << ",\n";
    os << "      \"id\": " << f.id << ",\n";
    os << "      \"window_begin_seconds\": ";
    if (f.window_begin >= 0)
      os << sim::toSeconds(f.window_begin);
    else
      os << "null";
    os << ",\n";
    os << "      \"window_end_seconds\": ";
    if (f.window_end >= 0)
      os << sim::toSeconds(f.window_end);
    else
      os << "null";
    os << ",\n";
    os << "      \"evidence\": \"" << support::jsonEscape(f.evidence)
       << "\",\n";
    os << "      \"remedy\": \"" << support::jsonEscape(f.remedy)
       << "\"\n    }";
  }
  os << (rank == 0 ? "]\n" : "\n  ]\n");
  os << "}\n";
}

}  // namespace vodsm::obs
