// Shared-address-space layout: views and raw allocations.
//
// A ViewMap is built once (before a run) and shared read-only by all nodes,
// mirroring how a VOPP program's views are fixed for the whole program.
// Views are page-aligned and never overlap (a VOPP requirement the library
// enforces); raw allocations (for traditional DSM programs) pack with
// natural alignment so distinct data structures can share pages — which is
// exactly what produces the false-sharing the paper's traditional programs
// suffer from.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "dsm/types.hpp"
#include "mem/page.hpp"
#include "support/check.hpp"

namespace vodsm::dsm {

class ViewMap {
 public:
  struct ViewDef {
    size_t offset = 0;  // byte offset in the shared space (page aligned)
    size_t bytes = 0;   // requested size
    mem::PageId first_page = 0;
    uint32_t page_count = 0;
    // Manager/home node. By default views are distributed round-robin
    // (id mod nprocs); a program with a known consumer can pin the home
    // there so VC_sd's release-time diff pushes land where they are read.
    std::optional<NodeId> home;
  };

  // Define a new view of `bytes` bytes. Returns its id (dense, 0-based).
  ViewId defineView(size_t bytes, std::optional<NodeId> home = std::nullopt) {
    VODSM_CHECK_MSG(bytes > 0, "empty view");
    alignTo(mem::kPageSize);
    ViewDef d;
    d.offset = top_;
    d.bytes = bytes;
    d.first_page = mem::pageOf(top_);
    size_t span = (bytes + mem::kPageSize - 1) / mem::kPageSize;
    d.page_count = static_cast<uint32_t>(span);
    d.home = home;
    top_ += span * mem::kPageSize;
    views_.push_back(d);
    const ViewId id = static_cast<ViewId>(views_.size() - 1);
    // Maintain the flat page -> view table (kNoView for gaps left by
    // allocRaw); viewOfPage is a hot per-fault lookup.
    page_view_.resize(d.first_page + d.page_count, kNoView);
    std::fill(page_view_.begin() + d.first_page, page_view_.end(), id);
    return id;
  }

  // The manager (home) node of view `v` on an `nprocs`-node cluster: the
  // pinned home if any, id mod p otherwise.
  NodeId managerOf(ViewId v, int nprocs) const {
    const ViewDef& d = view(v);
    if (d.home)
      return *d.home % static_cast<uint32_t>(nprocs);
    return v % static_cast<uint32_t>(nprocs);
  }

  // Number the views of each manager densely, in view order, for an
  // `nprocs`-node cluster, so a manager can keep its per-view state in a
  // vector: homeSlot(v) indexes it and homedViews(n) sizes node n's. Called
  // once when the cluster starts, after the last defineView.
  void placeHomes(int nprocs) {
    home_slot_.resize(views_.size());
    homed_.assign(static_cast<size_t>(nprocs), 0);
    for (ViewId v = 0; v < views_.size(); ++v)
      home_slot_[v] = homed_[managerOf(v, nprocs)]++;
  }
  uint32_t homeSlot(ViewId v) const {
    VODSM_CHECK_MSG(v < home_slot_.size(), "view " << v << " has no home slot");
    return home_slot_[v];
  }
  uint32_t homedViews(NodeId n) const {
    VODSM_CHECK_MSG(n < homed_.size(), "node " << n << " has no homes placed");
    return homed_[n];
  }

  // Raw shared allocation for traditional (non-VOPP) programs. Natural
  // alignment only, so consecutive allocations share pages.
  size_t allocRaw(size_t bytes, size_t align = 8) {
    VODSM_CHECK(bytes > 0 && align > 0 && (align & (align - 1)) == 0);
    alignTo(align);
    size_t off = top_;
    top_ += bytes;
    return off;
  }

  size_t viewCount() const { return views_.size(); }
  const ViewDef& view(ViewId v) const {
    VODSM_CHECK_MSG(v < views_.size(), "unknown view " << v);
    return views_[v];
  }

  // The view containing page `p`, if any. O(1): a flat per-page table is
  // maintained by defineView (this is on the page-fault hot path).
  std::optional<ViewId> viewOfPage(mem::PageId p) const {
    if (p >= page_view_.size() || page_view_[p] == kNoView)
      return std::nullopt;
    return page_view_[p];
  }

  bool viewContainsRange(ViewId v, size_t offset, size_t len) const {
    const ViewDef& d = view(v);
    return offset >= d.offset && offset + len <= d.offset + d.bytes;
  }

  // Total shared space implied by the allocations (page-rounded).
  size_t heapBytes() const {
    return (top_ + mem::kPageSize - 1) / mem::kPageSize * mem::kPageSize;
  }

 private:
  static constexpr ViewId kNoView = static_cast<ViewId>(-1);

  void alignTo(size_t align) { top_ = (top_ + align - 1) / align * align; }

  std::vector<ViewDef> views_;
  std::vector<ViewId> page_view_;  // page -> owning view, kNoView if none
  std::vector<uint32_t> home_slot_;  // view -> index among its home's views
  std::vector<uint32_t> homed_;      // node -> views it manages
  size_t top_ = 0;
};

}  // namespace vodsm::dsm
