#include "model/table_data.hpp"

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

#include "support/check.hpp"

namespace vodsm::model {

bool parseCellId(const std::string& id, std::string& app, std::string& impl,
                 int& procs) {
  const size_t s1 = id.find('/');
  if (s1 == std::string::npos) return false;
  const size_t s2 = id.find('/', s1 + 1);
  if (s2 == std::string::npos) return false;
  size_t s3 = id.find('/', s2 + 1);
  if (s3 == std::string::npos) s3 = id.size();
  app = id.substr(0, s1);
  impl = id.substr(s1 + 1, s2 - s1 - 1);
  const std::string pseg = id.substr(s2 + 1, s3 - s2 - 1);
  if (pseg.size() < 2 || pseg.back() != 'p') return false;
  char* end = nullptr;
  const long p = std::strtol(pseg.c_str(), &end, 10);
  if (end != pseg.c_str() + pseg.size() - 1 || p <= 0) return false;
  procs = static_cast<int>(p);
  return true;
}

namespace {

void loadAxes(const support::Json& cell, CellSample& out) {
  const support::Json* axes = cell.find("axes");
  if (axes == nullptr) return;
  out.axes.explicit_axes = true;
  if (const support::Json* v = axes->find("n_scale"))
    out.axes.n_scale = v->asNumber();
  if (const support::Json* v = axes->find("bw_mbps"))
    out.axes.bw_mbps = v->asNumber();
  if (const support::Json* v = axes->find("loss_pct"))
    out.axes.loss_pct = v->asNumber();
}

}  // namespace

std::vector<CellSample> loadTableCells(const support::Json& root) {
  std::vector<CellSample> out;
  std::set<std::string> seen;
  for (const support::Json& table : root.at("tables").items()) {
    for (const support::Json& cell : table.at("cells").items()) {
      CellSample s;
      s.id = cell.at("id").asString();
      if (!seen.insert(s.id).second) continue;
      VODSM_CHECK_MSG(parseCellId(s.id, s.app, s.impl, s.axes.procs),
                      "unparseable cell id: " + s.id);
      s.sim_seconds = cell.at("sim_seconds").asNumber();
      loadAxes(cell, s);
      if (const support::Json* bd = cell.find("breakdown_seconds")) {
        s.has_breakdown = true;
        for (int b = 0; b < kBucketCount; ++b)
          s.breakdown[b] = bd->at(kBucketName[b]).asNumber();
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<CellSample> loadTableCellsFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  VODSM_CHECK_MSG(in.good(), "cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return loadTableCells(support::Json::parse(ss.str()));
}

}  // namespace vodsm::model
