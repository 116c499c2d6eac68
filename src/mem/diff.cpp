#include "mem/diff.hpp"

#include <cstring>

namespace vodsm::mem {

namespace {
constexpr size_t kWord = 4;
static_assert(kPageSize % 8 == 0, "64-bit scan assumes 8-byte-multiple pages");

// 64-bit twin comparison with run coalescing. Semantics are identical to
// the original 4-byte-word memcmp scan (runs are maximal sequences of
// differing 4-byte words), but the clean fast path — an unchanged 8-byte
// block — is one XOR, and the per-word result falls out of the same XOR's
// halves, so scanning a mostly-clean page touches each cache line once.
void scanPage(ByteSpan current, ByteSpan twin, std::vector<Diff::Run>& runs,
              Bytes& data) {
  VODSM_CHECK(current.size() == kPageSize && twin.size() == kPageSize);
  const std::byte* cur = current.data();
  const std::byte* tw = twin.data();

  size_t run_start = kPageSize;  // kPageSize == no run open
  auto flush = [&](size_t end) {
    if (run_start == kPageSize) return;
    runs.push_back(Diff::Run{static_cast<uint16_t>(run_start),
                             static_cast<uint16_t>(end - run_start)});
    data.insert(data.end(), cur + run_start, cur + end);
    run_start = kPageSize;
  };

  for (size_t i = 0; i < kPageSize; i += 8) {
    uint64_t a, b;
    std::memcpy(&a, cur + i, 8);
    std::memcpy(&b, tw + i, 8);
    const uint64_t x = a ^ b;
    if (x == 0) {
      flush(i);
      continue;
    }
    // Little-endian host (as assumed by support/bytes.hpp): the low 32 bits
    // of the XOR cover bytes [i, i+4), the high 32 bits [i+4, i+8).
    const bool lo = (x & 0xFFFFFFFFull) != 0;
    const bool hi = (x >> 32) != 0;
    if (lo) {
      if (run_start == kPageSize) run_start = i;
      if (!hi) flush(i + kWord);
    } else {
      flush(i);
      if (hi) run_start = i + kWord;
    }
  }
  flush(kPageSize);
}
}  // namespace

Diff Diff::create(PageId page, ByteSpan current, ByteSpan twin) {
  Diff d(page);
  scanPage(current, twin, d.runs_, d.data_);
  return d;
}

Diff Diff::create(PageId page, ByteSpan current, ByteSpan twin,
                  Scratch& scratch) {
  scratch.runs.clear();
  scratch.data.clear();
  scanPage(current, twin, scratch.runs, scratch.data);
  Diff d(page);
  d.runs_.assign(scratch.runs.begin(), scratch.runs.end());
  d.data_.assign(scratch.data.begin(), scratch.data.end());
  return d;
}

void Diff::apply(MutByteSpan page_bytes) const {
  VODSM_CHECK(page_bytes.size() == kPageSize);
  size_t pos = 0;
  for (const Run& r : runs_) {
    VODSM_DCHECK(static_cast<size_t>(r.offset) + r.length <= kPageSize);
    std::memcpy(page_bytes.data() + r.offset, data_.data() + pos, r.length);
    pos += r.length;
  }
  VODSM_DCHECK(pos == data_.size());
}

namespace {
// Walks the union of two diffs' coverage in ascending offset order and hands
// `piece(offset, length, bytes)` each stretch that has one source: every
// newer run whole, and the parts of older runs no newer run covers. Both
// run lists are ascending and non-overlapping (addRun and deserialize
// enforce it), so one linear merge finds them.
template <typename Piece>
void forEachPiece(const Diff& older, const Diff& newer, Piece&& piece) {
  const std::vector<Diff::Run>& o = older.runs();
  const std::byte* odata = older.data().data();
  const std::byte* ndata = newer.data().data();
  size_t i = 0;       // current older run
  size_t opos = 0;    // data position of older run i
  size_t ostart = 0;  // first byte of older run i no newer run has covered
  if (!o.empty()) ostart = o[0].offset;
  auto oend = [&] { return static_cast<size_t>(o[i].offset) + o[i].length; };
  auto next = [&] {
    opos += o[i].length;
    if (++i < o.size()) ostart = o[i].offset;
  };
  auto emitOlder = [&](size_t end) {
    if (end > ostart)
      piece(ostart, end - ostart, odata + opos + (ostart - o[i].offset));
  };
  size_t npos = 0;
  for (const Diff::Run& r : newer.runs()) {
    const size_t nstart = r.offset;
    const size_t nend = nstart + r.length;
    // Older bytes before this newer run.
    while (i < o.size() && ostart < nstart) {
      if (oend() > nstart) {
        emitOlder(nstart);
        ostart = nstart;
        break;
      }
      emitOlder(oend());
      next();
    }
    if (r.length > 0) piece(nstart, r.length, ndata + npos);
    npos += r.length;
    // Older bytes this newer run overwrites.
    while (i < o.size() && ostart < nend) {
      if (oend() > nend) {
        ostart = nend;
        break;
      }
      next();
    }
  }
  while (i < o.size()) {
    emitOlder(oend());
    next();
  }
}
}  // namespace

Diff Diff::integrate(const Diff& older, const Diff& newer) {
  VODSM_CHECK(older.page_ == newer.page_);
  // Pieces that touch coalesce into one run, so the output's runs are the
  // maximal covered ranges. A counting pass sizes the result exactly: base
  // diffs stay resident in the VC_sd home for the rest of the run.
  size_t run_count = 0;
  size_t byte_count = 0;
  size_t end = kPageSize + 1;  // no run open
  forEachPiece(older, newer, [&](size_t off, size_t len, const std::byte*) {
    if (off != end) ++run_count;
    byte_count += len;
    end = off + len;
  });
  Diff out(older.page_);
  out.runs_.resize(run_count);
  out.data_.resize(byte_count);
  size_t runs = 0;
  std::byte* dst = out.data_.data();
  end = kPageSize + 1;
  forEachPiece(older, newer,
               [&](size_t off, size_t len, const std::byte* bytes) {
                 if (off == end)
                   out.runs_[runs - 1].length = static_cast<uint16_t>(
                       out.runs_[runs - 1].length + len);
                 else
                   out.runs_[runs++] = Run{static_cast<uint16_t>(off),
                                           static_cast<uint16_t>(len)};
                 std::memcpy(dst, bytes, len);
                 dst += len;
                 end = off + len;
               });
  return out;
}

void Diff::serialize(Writer& w) const {
  w.reserveMore(wireSize());
  w.u32(page_);
  w.u32(static_cast<uint32_t>(runs_.size()));
  for (const Run& r : runs_) {
    w.u16(r.offset);
    w.u16(r.length);
  }
  w.blob(data_);
}

Diff Diff::deserialize(Reader& r) {
  Diff d(r.u32());
  const uint32_t n = r.u32();
  VODSM_CHECK_MSG(n <= r.remaining() / 4, "corrupt diff encoding: " << n
                                              << " runs in " << r.remaining()
                                              << " bytes");
  d.runs_.reserve(n);
  size_t end = 0;  // integrate's merge needs ascending, disjoint runs
  for (uint32_t i = 0; i < n; ++i) {
    uint16_t off = r.u16();
    uint16_t len = r.u16();
    VODSM_CHECK_MSG(off >= end && static_cast<size_t>(off) + len <= kPageSize,
                    "corrupt diff encoding: run [" << off << ", " << off + len
                                                   << ") after byte " << end);
    end = static_cast<size_t>(off) + len;
    d.runs_.push_back(Run{off, len});
  }
  ByteSpan data = r.blob();
  d.data_.assign(data.begin(), data.end());
  size_t total = 0;
  for (const Run& run : d.runs_) total += run.length;
  VODSM_CHECK_MSG(total == d.data_.size(), "corrupt diff encoding");
  return d;
}

void Diff::addRun(uint16_t offset, ByteSpan bytes) {
  VODSM_CHECK(static_cast<size_t>(offset) + bytes.size() <= kPageSize);
  const size_t end =
      runs_.empty() ? 0 : static_cast<size_t>(runs_.back().offset) +
                              runs_.back().length;
  VODSM_CHECK_MSG(offset >= end, "diff run at " << offset
                                                << " overlaps or precedes "
                                                   "the run ending at "
                                                << end);
  runs_.push_back(Run{offset, static_cast<uint16_t>(bytes.size())});
  data_.insert(data_.end(), bytes.begin(), bytes.end());
}

}  // namespace vodsm::mem
