#include "obs/diagnose.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "obs/passes/passes.hpp"

namespace vodsm::obs {

Diagnoser::Diagnoser() : Diagnoser(true) {}

Diagnoser::Diagnoser(bool with_default_catalog) {
  if (!with_default_catalog) return;
  // Catalog order is documentation only; the report ranks by severity.
  passes_.push_back(passes::makePartitionPass());
  passes_.push_back(passes::makeStragglerPass());
  passes_.push_back(passes::makeDegradedLinkPass());
  passes_.push_back(passes::makeRetransmitStormPass());
  passes_.push_back(passes::makeGrantStormPass());
  passes_.push_back(passes::makeAllToAllDiffPass());
  passes_.push_back(passes::makeImbalancePass());
  passes_.push_back(passes::makePageImbalancePass());
  passes_.push_back(passes::makeDiffStoreGrowthPass());
  passes_.push_back(passes::makeHotspotPass());
}

void Diagnoser::addPass(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

Diagnosis Diagnoser::run(const DiagnosisInput& in) const {
  Diagnosis d;
  d.on = true;
  d.makespan = in.finish;
  d.nprocs = in.nprocs;
  for (const auto& pass : passes_) pass->run(in, d.findings);
  for (Finding& f : d.findings)
    f.severity = std::clamp(f.severity, 0.0, 1.0);
  // Rank: severity desc, then category (root causes enumerate before
  // symptoms), then location — a total order, so the report is
  // deterministic regardless of pass registration order.
  std::sort(d.findings.begin(), d.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.severity != b.severity) return a.severity > b.severity;
              if (a.cat != b.cat) return a.cat < b.cat;
              if (a.location != b.location) return a.location < b.location;
              if (a.node != b.node) return a.node < b.node;
              return a.id < b.id;
            });
  return d;
}

Diagnosis diagnose(const TraceRecorder& trace, int nprocs, sim::Time finish,
                   const MetricsSummary* metrics,
                   std::function<WireClass(uint64_t)> classify,
                   std::function<sim::Time(uint64_t)> tx_time) {
  const EventGraph graph = buildEventGraph(trace, nprocs);
  const CriticalPath cp = computeCriticalPath(graph, finish);
  const Breakdown bd = foldBreakdown(trace, nprocs, finish);
  const PageHeat heat = foldPageHeat(trace);

  DiagnosisInput in;
  in.trace = &trace;
  in.graph = &graph;
  in.critpath = &cp;
  in.breakdown = &bd;
  in.pageheat = &heat;
  in.metrics = metrics && metrics->enabled() ? metrics : nullptr;
  in.nprocs = nprocs;
  in.finish = finish;
  in.classify = std::move(classify);
  in.tx_time = std::move(tx_time);
  return Diagnoser().run(in);
}

namespace {

std::string fmtSecs(sim::Time t) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(4) << sim::toSeconds(t);
  return os.str();
}

std::string fmtSeverity(double sev) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << std::setw(5)
     << sev * 100.0;
  return os.str();
}

void jsonEscape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
             << static_cast<int>(c) << std::dec << std::setfill(' ');
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void printDiagnosis(std::ostream& os, const Diagnosis& d,
                    const std::string& title) {
  os << "\n" << title << "\n";
  os << "makespan " << fmtSecs(d.makespan) << " s over " << d.nprocs
     << " nodes; " << d.findings.size()
     << (d.findings.size() == 1 ? " finding" : " findings") << "\n";
  if (d.findings.empty()) {
    os << "no significant pattern detected; the run looks healthy\n";
    return;
  }
  int rank = 0;
  for (const Finding& f : d.findings) {
    os << "#" << ++rank << " [" << fmtSeverity(f.severity) << "%] "
       << findingCatName(f.cat) << ": " << f.location << "\n";
    os << "    evidence: " << f.evidence << "\n";
    os << "    remedy:   " << f.remedy << "\n";
  }
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
    os << "      \"location\": ";
    jsonEscape(os, f.location);
    os << ",\n";
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
    os << "      \"evidence\": ";
    jsonEscape(os, f.evidence);
    os << ",\n";
    os << "      \"remedy\": ";
    jsonEscape(os, f.remedy);
    os << "\n    }";
  }
  os << (rank == 0 ? "]\n" : "\n  ]\n");
  os << "}\n";
}

}  // namespace vodsm::obs
