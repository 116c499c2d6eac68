// Page diffs: the unit of update propagation in all three DSM protocols.
//
// A diff records the byte ranges of one page that changed relative to its
// twin, at 4-byte word granularity (as in TreadMarks). VC_sd additionally
// *integrates* successive diffs of the same page into a single diff whose
// runs cover the union of the inputs, with later bytes taking precedence.
#pragma once

#include <vector>

#include "mem/page.hpp"
#include "support/bytes.hpp"
#include "support/check.hpp"

namespace vodsm::mem {

class Diff {
 public:
  // A diff's runs are ascending and disjoint; create() and integrate()
  // also make them maximal, and addRun() and deserialize() reject any
  // run that overlaps or precedes the one before it.
  struct Run {
    uint16_t offset = 0;  // byte offset within the page
    uint16_t length = 0;  // byte count
  };

  Diff() = default;
  explicit Diff(PageId page) : page_(page) {}

  PageId page() const { return page_; }
  bool empty() const { return runs_.empty(); }
  const std::vector<Run>& runs() const { return runs_; }
  ByteSpan data() const { return data_; }

  // Word-granular comparison of `current` against `twin` (both one page).
  static Diff create(PageId page, ByteSpan current, ByteSpan twin);

  // Reusable scan buffers for the arena variant of create() below. One
  // Scratch per owner (e.g. per-node PageStore) keeps the hot diff path
  // free of vector growth: the scan runs in capacity retained across
  // calls and the resulting Diff is sized exactly once.
  struct Scratch {
    std::vector<Run> runs;
    Bytes data;
  };

  // As create(), but scans into `scratch` (capacity retained across calls)
  // and copies the exact-size result out. Produces an identical Diff.
  static Diff create(PageId page, ByteSpan current, ByteSpan twin,
                     Scratch& scratch);

  // Overwrite the covered ranges of `page_bytes` with this diff's data.
  void apply(MutByteSpan page_bytes) const;

  // Equivalent of applying `older` then `newer` to the same base.
  static Diff integrate(const Diff& older, const Diff& newer);

  // Bytes this diff occupies in a message (runs table + data + header).
  size_t wireSize() const { return 12 + runs_.size() * 4 + data_.size(); }

  void serialize(Writer& w) const;
  static Diff deserialize(Reader& r);

  // Test/build helper: append one run with explicit bytes, after (or
  // touching) the last one.
  void addRun(uint16_t offset, ByteSpan bytes);

  bool operator==(const Diff& o) const {
    if (page_ != o.page_ || runs_.size() != o.runs_.size()) return false;
    for (size_t i = 0; i < runs_.size(); ++i)
      if (runs_[i].offset != o.runs_[i].offset ||
          runs_[i].length != o.runs_[i].length)
        return false;
    return std::equal(data_.begin(), data_.end(), o.data_.begin(),
                      o.data_.end());
  }

 private:
  PageId page_ = 0;
  std::vector<Run> runs_;
  Bytes data_;
};

}  // namespace vodsm::mem
