// Write notices and intervals: LRC's record of "who wrote which pages when".
#pragma once

#include <vector>

#include "mem/page.hpp"
#include "mem/vclock.hpp"
#include "support/bytes.hpp"

namespace vodsm::mem {

// One closed interval of one node: the set of pages it dirtied between two
// consecutive synchronization operations, stamped with the node's vector
// clock at the moment the interval was closed.
struct Interval {
  uint32_t node = 0;
  uint32_t index = 0;  // 1-based per-node interval counter
  VClock vc;
  std::vector<PageId> pages;

  void serialize(Writer& w) const {
    w.u32(node);
    w.u32(index);
    vc.serialize(w);
    w.u32(static_cast<uint32_t>(pages.size()));
    for (PageId p : pages) w.u32(p);
  }
  static Interval deserialize(Reader& r) {
    Interval iv;
    iv.node = r.u32();
    iv.index = r.u32();
    iv.vc = VClock::deserialize(r);
    const uint32_t n = r.u32();
    iv.pages.reserve(n);
    for (uint32_t i = 0; i < n; ++i) iv.pages.push_back(r.u32());
    return iv;
  }
};

// A write notice as recorded against one page: node `writer`'s interval
// `interval_index` modified the page.
struct WriteNotice {
  uint32_t writer = 0;
  uint32_t interval_index = 0;

  bool operator==(const WriteNotice& o) const {
    return writer == o.writer && interval_index == o.interval_index;
  }
};

}  // namespace vodsm::mem
