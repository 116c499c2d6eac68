// Byte-buffer and serialization helpers for protocol messages.
//
// All wire formats in the DSM and msg layers are built from these two
// primitives: Writer appends fixed-width little-endian integers and raw byte
// ranges through a cursor; Reader consumes them with bounds checking.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace vodsm {

using Bytes = std::vector<std::byte>;
using ByteSpan = std::span<const std::byte>;
using MutByteSpan = std::span<std::byte>;

// Appends primitive values through a cursor. A Writer either owns a
// growable buffer (default or `reserve` constructor; `take()` returns it)
// or writes into a caller's span that must hold everything written (the
// encoder sizes each message first and writes into its payload block).
class Writer {
 public:
  Writer() = default;
  explicit Writer(size_t reserve) { grow(reserve); }
  explicit Writer(MutByteSpan out)
      : begin_(out.data()),
        pos_(out.data()),
        end_(out.data() + out.size()),
        owns_(false) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void u8(uint8_t v) { appendRaw(&v, 1); }
  void u16(uint16_t v) { appendLe(v); }
  void u32(uint32_t v) { appendLe(v); }
  void u64(uint64_t v) { appendLe(v); }
  void i64(int64_t v) { appendLe(static_cast<uint64_t>(v)); }
  void f64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    appendLe(bits);
  }
  void bytes(ByteSpan b) {
    if (!b.empty()) appendRaw(b.data(), b.size());
  }

  // Pre-size for `n` further bytes so hot serialization paths (diff-heavy
  // messages) append without intermediate reallocations.
  void reserveMore(size_t n) {
    if (n > static_cast<size_t>(end_ - pos_)) grow(n);
  }

  // Length-prefixed byte range.
  void blob(ByteSpan b) {
    u32(static_cast<uint32_t>(b.size()));
    bytes(b);
  }

  size_t size() const { return static_cast<size_t>(pos_ - begin_); }
  // The owned buffer, trimmed to what was written; the writer is empty
  // afterwards.
  Bytes take() {
    VODSM_CHECK(owns_);
    buf_.resize(size());
    begin_ = pos_ = end_ = nullptr;
    return std::move(buf_);
  }
  ByteSpan view() const { return ByteSpan(begin_, size()); }

 private:
  template <typename T>
  void appendLe(T v) {
    // Host is little-endian on every supported platform; memcpy keeps this
    // well-defined either way since both ends use the same routine.
    appendRaw(&v, sizeof(T));
  }
  void appendRaw(const void* p, size_t n) {
    if (n > static_cast<size_t>(end_ - pos_)) grow(n);
    std::memcpy(pos_, p, n);
    pos_ += n;
  }
  // Room for `n` more bytes in the owned buffer, at least doubling it.
  void grow(size_t n) {
    VODSM_CHECK_MSG(owns_, "message overruns its buffer by "
                               << n - static_cast<size_t>(end_ - pos_)
                               << " bytes");
    const size_t used = size();
    buf_.resize(std::max(used + n, 2 * buf_.size()));
    begin_ = buf_.data();
    pos_ = begin_ + used;
    end_ = begin_ + buf_.size();
  }

  Bytes buf_;  // the owned buffer; its size is the capacity
  std::byte* begin_ = nullptr;
  std::byte* pos_ = nullptr;
  std::byte* end_ = nullptr;
  bool owns_ = true;
};

// Consumes primitive values from a byte range, with bounds checks.
class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  uint8_t u8() { return static_cast<uint8_t>(takeRaw(1)[0]); }
  uint16_t u16() { return takeLe<uint16_t>(); }
  uint32_t u32() { return takeLe<uint32_t>(); }
  uint64_t u64() { return takeLe<uint64_t>(); }
  int64_t i64() { return static_cast<int64_t>(takeLe<uint64_t>()); }
  double f64() {
    uint64_t bits = takeLe<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  ByteSpan bytes(size_t n) { return takeRaw(n); }
  ByteSpan blob() { return takeRaw(u32()); }

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }

 private:
  template <typename T>
  T takeLe() {
    ByteSpan raw = takeRaw(sizeof(T));
    T v;
    std::memcpy(&v, raw.data(), sizeof(T));
    return v;
  }
  ByteSpan takeRaw(size_t n) {
    VODSM_CHECK_MSG(remaining() >= n, "short read: want " << n << ", have "
                                                          << remaining());
    ByteSpan out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace vodsm
