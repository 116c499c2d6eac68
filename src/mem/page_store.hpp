// Per-node copy of the shared address space with software page protection.
//
// Each simulated node owns a full private copy of the DSM address space plus
// per-page protection state and optional twins. The protocol layers drive
// the same transitions a SIGSEGV-based implementation would:
//
//   invalid  --read fault-->  read-mapped   (contents fetched/updated first)
//   read     --write fault--> write-mapped  (twin snapshotted for diffing)
//   release/barrier:           diff against twin, downgrade to read
//
// Page state is one byte per page: the access state plus a has-twin bit.
// An O(p^2)-view heap has tens of thousands of pages on every node, and the
// per-touch path (access, hasTwin) reads only that byte. The twin buffers
// live in a side table keyed by page, which only makeTwin, twin,
// diffAgainstTwin and dropTwin touch; a node holds twins only for the pages
// it wrote since its last release.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "mem/diff.hpp"
#include "mem/page.hpp"
#include "support/check.hpp"

namespace vodsm::mem {

// Page -> twin buffer. Open addressing with linear probing, at most half
// full, and backward-shift deletion: a lookup is about one probe, and once
// the table has grown to a node's largest dirty set it allocates nothing.
class TwinTable {
 public:
  // `p`'s buffer, or null.
  std::byte* find(PageId p) const {
    return slots_.empty() ? nullptr : slots_[probe(p)].buf;
  }

  void insert(PageId p, std::byte* buf) {
    if (2 * (count_ + 1) > slots_.size()) rehash();
    const size_t i = probe(p);
    VODSM_DCHECK(slots_[i].page == kEmpty);
    slots_[i] = Slot{p, buf};
    ++count_;
  }

  // Removes `p`'s entry, which must be present, and returns its buffer.
  std::byte* erase(PageId p) {
    size_t i = probe(p);
    VODSM_DCHECK(slots_[i].page == p);
    std::byte* buf = slots_[i].buf;
    // Shift later entries of the probe run back over the hole, unless
    // their home slot lies cyclically in (hole, entry].
    for (size_t j = (i + 1) & mask(); slots_[j].page != kEmpty;
         j = (j + 1) & mask()) {
      const size_t h = home(slots_[j].page);
      if (((j - h) & mask()) >= ((j - i) & mask())) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --count_;
    return buf;
  }

 private:
  static constexpr PageId kEmpty = UINT32_MAX;
  struct Slot {
    PageId page = kEmpty;
    std::byte* buf = nullptr;
  };

  size_t mask() const { return slots_.size() - 1; }
  size_t home(PageId p) const {
    return static_cast<size_t>((uint64_t{p} * 0x9E3779B97F4A7C15ull) >>
                               shift_);
  }
  // The slot holding `p`, or the empty slot that ends its probe run (the
  // table is at most half full, so there is one).
  size_t probe(PageId p) const {
    size_t i = home(p);
    while (slots_[i].page != p && slots_[i].page != kEmpty)
      i = (i + 1) & mask();
    return i;
  }

  void rehash() {
    std::vector<Slot> old = std::move(slots_);
    const size_t cap = old.empty() ? 16 : 2 * old.size();
    slots_.assign(cap, Slot{});
    shift_ = 64 - std::countr_zero(cap);
    count_ = 0;
    for (const Slot& s : old)
      if (s.page != kEmpty) insert(s.page, s.buf);
  }

  std::vector<Slot> slots_;  // a power of two, or empty
  size_t count_ = 0;
  int shift_ = 64;
};

class PageStore {
 public:
  explicit PageStore(size_t bytes)
      : bytes_((bytes + kPageSize - 1) / kPageSize * kPageSize),
        mem_(static_cast<std::byte*>(std::calloc(bytes_ ? bytes_ : 1, 1))),
        state_(bytes_ / kPageSize, static_cast<uint8_t>(Access::kNone)) {
    VODSM_CHECK(mem_ != nullptr);
  }

  size_t sizeBytes() const { return bytes_; }
  size_t pageCount() const { return state_.size(); }

  MutByteSpan page(PageId p) {
    VODSM_DCHECK(p < pageCount());
    return MutByteSpan(mem_.get() + pageStart(p), kPageSize);
  }
  ByteSpan pageView(PageId p) const {
    VODSM_DCHECK(p < pageCount());
    return ByteSpan(mem_.get() + pageStart(p), kPageSize);
  }

  // Arbitrary byte range access (application data path).
  MutByteSpan range(size_t offset, size_t len) {
    VODSM_CHECK(offset + len <= bytes_);
    return MutByteSpan(mem_.get() + offset, len);
  }
  ByteSpan rangeView(size_t offset, size_t len) const {
    VODSM_CHECK(offset + len <= bytes_);
    return ByteSpan(mem_.get() + offset, len);
  }

  Access access(PageId p) const {
    return static_cast<Access>(state_[p] & kAccessBits);
  }
  void setAccess(PageId p, Access a) {
    state_[p] = static_cast<uint8_t>((state_[p] & kTwinBit) |
                                     static_cast<uint8_t>(a));
  }

  bool hasTwin(PageId p) const { return (state_[p] & kTwinBit) != 0; }

  // Snapshot the current page contents as the twin (write-fault action).
  // Twin buffers are recycled through a free list: a steady-state
  // write-fault/release cycle allocates nothing.
  void makeTwin(PageId p) {
    VODSM_DCHECK(!hasTwin(p));
    std::byte* buf;
    if (!free_twins_.empty()) {
      buf = free_twins_.back();
      free_twins_.pop_back();
    } else {
      twin_buffers_.emplace_back(new std::byte[kPageSize]);
      buf = twin_buffers_.back().get();
    }
    ByteSpan cur = pageView(p);
    std::copy(cur.begin(), cur.end(), buf);
    twins_.insert(p, buf);
    state_[p] |= kTwinBit;
  }

  ByteSpan twin(PageId p) const {
    VODSM_DCHECK(hasTwin(p));
    return ByteSpan(twins_.find(p), kPageSize);
  }

  void dropTwin(PageId p) {
    if (!hasTwin(p)) return;
    free_twins_.push_back(twins_.erase(p));
    state_[p] &= static_cast<uint8_t>(~kTwinBit);
  }

  // Diff current contents against the twin; the twin is kept (callers drop
  // it once the diff has been recorded). Scans through the store's scratch
  // arena so repeated diffing allocates only the exact-size results.
  Diff diffAgainstTwin(PageId p) const {
    return Diff::create(p, pageView(p), twin(p), scratch_);
  }

 private:
  static constexpr uint8_t kAccessBits = 0x3;  // an Access value
  static constexpr uint8_t kTwinBit = 0x4;

  struct FreeDeleter {
    void operator()(std::byte* p) const { std::free(p); }
  };

  size_t bytes_;
  // calloc, not a value-initialized vector: large heaps come from the OS as
  // lazily-faulted zero pages, so a node's resident footprint is only the
  // pages it actually touches. With per-node full copies of an O(p^2)-view
  // address space (IS contribution views), eager zero-fill would make host
  // memory O(p^3) and dominate wall-clock at 256 nodes.
  std::unique_ptr<std::byte[], FreeDeleter> mem_;
  std::vector<uint8_t> state_;  // per page: Access | kTwinBit
  TwinTable twins_;             // the twin of every page with kTwinBit
  std::vector<std::unique_ptr<std::byte[]>> twin_buffers_;  // all, owned
  std::vector<std::byte*> free_twins_;  // recycled twin buffers
  mutable Diff::Scratch scratch_;
};

}  // namespace vodsm::mem
