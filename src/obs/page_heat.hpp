// Per-page contention accounting, folded while a run is traced.
//
// Folds the page-indexed protocol events — kFault spans, kTwin, kDiffApply
// and kNotice instants — by page id into one row per page: how often the
// page faulted and how long those faults took, how many twins and diff
// applications it saw, how many distinct nodes touched it, and how many
// distinct writers its write notices named. Sorting by fault time surfaces
// exactly the false-sharing hot spots the paper's Gauss in-place vs
// local-buffer contrast is about: a page with many sharers, many notices
// and heavy diff traffic is being ping-ponged.
//
// Every TraceRecorder (obs/trace.hpp) feeds a PageHeatFold as it records,
// so page heat never walks the stored events. That is what lets a recorder
// drop the write notices, the bulk of an LRC_d trace, unless it is built
// for export.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace vodsm::obs {

class TraceRecorder;

struct PageHeatRow {
  uint64_t page = 0;
  uint64_t faults = 0;          // completed kFault spans
  sim::Time fault_time = 0;     // summed kFault span length
  uint64_t twins = 0;
  uint64_t diff_applies = 0;
  uint64_t diff_bytes = 0;      // summed kDiffApply bytes
  uint64_t notices = 0;
  uint32_t sharers = 0;         // distinct nodes with any event on the page
  uint32_t writers = 0;         // distinct writer nodes named by notices
};

struct PageHeat {
  std::vector<PageHeatRow> rows;  // sorted by page id

  bool enabled() const { return !rows.empty(); }
};

// The online fold: one call per page-indexed event, in recording order.
// Different nodes can fault on the same page concurrently, so a fault's
// end is matched to its begin per (page, node); an end without a begin
// touches the page but counts no fault.
class PageHeatFold {
 public:
  void faultBegin(uint32_t node, uint64_t page, sim::Time ts) {
    touch(node, page);
    std::vector<OpenFault>& open = openOf(node);
    for (OpenFault& f : open)
      if (f.page == page) {
        f.begin = ts;
        return;
      }
    open.push_back({page, ts});
  }
  void faultEnd(uint32_t node, uint64_t page, sim::Time ts) {
    PageHeatRow& r = touch(node, page);
    std::vector<OpenFault>& open = openOf(node);
    for (OpenFault& f : open)
      if (f.page == page) {
        r.faults++;
        r.fault_time += ts - f.begin;
        f = open.back();
        open.pop_back();
        return;
      }
  }
  void twin(uint32_t node, uint64_t page) { touch(node, page).twins++; }
  void diffApply(uint32_t node, uint64_t page, uint64_t bytes) {
    PageHeatRow& r = touch(node, page);
    r.diff_applies++;
    r.diff_bytes += bytes;
  }
  void notice(uint32_t node, uint64_t page, uint32_t writer) {
    PageHeatRow& r = touch(node, page);
    r.notices++;
    if (mark(writers_, writer, page)) r.writers++;
  }

  // One row per touched page, in page-id order.
  PageHeat rows() const;

 private:
  struct OpenFault {
    uint64_t page;
    sim::Time begin;
  };

  // Sets bit `page` of `bits[node]`; true when it was clear.
  static bool mark(std::vector<std::vector<uint64_t>>& bits, uint32_t node,
                   uint64_t page) {
    if (node >= bits.size()) bits.resize(static_cast<size_t>(node) + 1);
    std::vector<uint64_t>& b = bits[node];
    const size_t word = static_cast<size_t>(page >> 6);
    if (word >= b.size()) b.resize(word + 1);
    const uint64_t bit = uint64_t{1} << (page & 63);
    if (b[word] & bit) return false;
    b[word] |= bit;
    return true;
  }

  PageHeatRow& touch(uint32_t node, uint64_t page) {
    if (page >= rows_.size()) rows_.resize(static_cast<size_t>(page) + 1);
    PageHeatRow& r = rows_[static_cast<size_t>(page)];
    if (mark(sharers_, node, page)) r.sharers++;
    return r;
  }

  std::vector<OpenFault>& openOf(uint32_t node) {
    if (node >= open_.size()) open_.resize(static_cast<size_t>(node) + 1);
    return open_[node];
  }

  // Indexed by page id; a page no event touched has no sharers.
  std::vector<PageHeatRow> rows_;
  // Per node (per writer), a bitmap over page ids of the pages it touched
  // (that named it in a notice): each distinct pair counts once.
  std::vector<std::vector<uint64_t>> sharers_;
  std::vector<std::vector<uint64_t>> writers_;
  std::vector<std::vector<OpenFault>> open_;  // per node: faults in service
};

// The page heat `trace` folded while it recorded. Engine pseudo-node events
// are not folded.
PageHeat foldPageHeat(const TraceRecorder& trace);

// Renders the `max_rows` hottest pages (by fault time, then fault count) as
// a fixed-width table.
void printPageHeat(std::ostream& os, const PageHeat& heat,
                   const std::string& title, size_t max_rows = 16);

// Writes every row as CSV (header + one line per page, page-id order).
void writePageHeatCsv(std::ostream& os, const PageHeat& heat);

}  // namespace vodsm::obs
