#include "obs/page_heat.hpp"

#include <algorithm>
#include <sstream>

#include "obs/trace.hpp"
#include "support/table.hpp"

namespace vodsm::obs {

PageHeat PageHeatFold::rows() const {
  PageHeat out;
  for (size_t page = 0; page < rows_.size(); ++page) {
    if (rows_[page].sharers == 0) continue;
    out.rows.push_back(rows_[page]);
    out.rows.back().page = page;
  }
  return out;
}

PageHeat foldPageHeat(const TraceRecorder& trace) {
  return trace.pageHeat().rows();
}

void printPageHeat(std::ostream& os, const PageHeat& heat,
                   const std::string& title, size_t max_rows) {
  os << "\n" << title << "\n";
  std::vector<const PageHeatRow*> hot;
  hot.reserve(heat.rows.size());
  for (const PageHeatRow& r : heat.rows) hot.push_back(&r);
  std::sort(hot.begin(), hot.end(),
            [](const PageHeatRow* a, const PageHeatRow* b) {
              if (a->fault_time != b->fault_time)
                return a->fault_time > b->fault_time;
              if (a->faults != b->faults) return a->faults > b->faults;
              return a->page < b->page;
            });
  TextTable t;
  t.header({"page", "faults", "fault ms", "twins", "applies", "diff KB",
            "notices", "sharers", "writers"});
  for (size_t i = 0; i < hot.size() && i < max_rows; ++i) {
    const PageHeatRow& r = *hot[i];
    std::ostringstream ms, kb;
    ms << std::fixed << std::setprecision(3)
       << sim::toSeconds(r.fault_time) * 1e3;
    kb << std::fixed << std::setprecision(1)
       << static_cast<double>(r.diff_bytes) / 1024.0;
    t.row({std::to_string(r.page), TextTable::format(r.faults), ms.str(),
           TextTable::format(r.twins), TextTable::format(r.diff_applies),
           kb.str(), TextTable::format(r.notices),
           std::to_string(r.sharers), std::to_string(r.writers)});
  }
  t.print(os);
  if (hot.size() > max_rows)
    os << "(" << hot.size() - max_rows << " cooler pages elided; CSV export "
       << "has all " << hot.size() << ")\n";
}

void writePageHeatCsv(std::ostream& os, const PageHeat& heat) {
  os << "page,faults,fault_seconds,twins,diff_applies,diff_bytes,notices,"
     << "sharers,writers\n";
  for (const PageHeatRow& r : heat.rows) {
    os << r.page << ',' << r.faults << ',' << sim::toSeconds(r.fault_time)
       << ',' << r.twins << ',' << r.diff_applies << ',' << r.diff_bytes
       << ',' << r.notices << ',' << r.sharers << ',' << r.writers << '\n';
  }
}

}  // namespace vodsm::obs
