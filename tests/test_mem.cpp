// Unit and property tests for the memory substrate: diffs, diff
// integration, page store, vector clocks, view map.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "dsm/view_map.hpp"
#include "mem/diff.hpp"
#include "mem/page_store.hpp"
#include "mem/vclock.hpp"
#include "sim/rng.hpp"

namespace vodsm {
namespace {

using mem::Diff;
using mem::kPageSize;

Bytes randomPage(sim::Rng& rng) {
  Bytes page(kPageSize);
  for (auto& b : page) b = static_cast<std::byte>(rng.below(256));
  return page;
}

// Mutate `page` at roughly `density` fraction of its words.
void mutatePage(sim::Rng& rng, MutByteSpan page, double density) {
  for (size_t w = 0; w + 4 <= page.size(); w += 4) {
    if (rng.uniform() < density) {
      page[w] = static_cast<std::byte>(rng.below(256));
      page[w + 1] = static_cast<std::byte>(rng.below(256));
    }
  }
}

class DiffProperty : public ::testing::TestWithParam<double> {};

// apply(create(cur, twin), twin) == cur — for any edit density.
TEST_P(DiffProperty, RoundTrip) {
  sim::Rng rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes twin = randomPage(rng);
    Bytes cur = twin;
    mutatePage(rng, cur, GetParam());
    Diff d = Diff::create(1, cur, twin);
    Bytes out = twin;
    d.apply(out);
    EXPECT_EQ(out, cur);
  }
}

// integrate(d1, d2) applied to base == d1 then d2 applied to base.
TEST_P(DiffProperty, IntegrationEqualsSequentialApplication) {
  sim::Rng rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes base = randomPage(rng);
    Bytes v1 = base;
    mutatePage(rng, v1, GetParam());
    Bytes v2 = v1;
    mutatePage(rng, v2, GetParam());
    Diff d1 = Diff::create(2, v1, base);
    Diff d2 = Diff::create(2, v2, v1);
    Diff merged = Diff::integrate(d1, d2);

    Bytes seq = base;
    d1.apply(seq);
    d2.apply(seq);
    Bytes intg = base;
    merged.apply(intg);
    EXPECT_EQ(intg, seq);
  }
}

// Wire round trip preserves the diff exactly.
TEST_P(DiffProperty, SerializationRoundTrip) {
  sim::Rng rng(77);
  Bytes twin = randomPage(rng);
  Bytes cur = twin;
  mutatePage(rng, cur, GetParam());
  Diff d = Diff::create(3, cur, twin);
  Writer w;
  d.serialize(w);
  Bytes encoded = w.take();
  Reader r(encoded);
  Diff back = Diff::deserialize(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(d, back);
  EXPECT_EQ(encoded.size(), d.wireSize());
}

INSTANTIATE_TEST_SUITE_P(Densities, DiffProperty,
                         ::testing::Values(0.0, 0.01, 0.1, 0.5, 1.0),
                         [](const auto& info) {
                           return "density_" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100));
                         });

TEST(Diff, EmptyWhenIdentical) {
  Bytes page(kPageSize, std::byte{5});
  Diff d = Diff::create(0, page, page);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.runs().size(), 0u);
}

TEST(Diff, CoalescesAdjacentWords) {
  Bytes twin(kPageSize, std::byte{0});
  Bytes cur = twin;
  for (size_t i = 100; i < 120; ++i) cur[i] = std::byte{1};
  Diff d = Diff::create(0, cur, twin);
  EXPECT_EQ(d.runs().size(), 1u);
  EXPECT_EQ(d.runs()[0].offset, 100u);
  EXPECT_EQ(d.runs()[0].length, 20u);
}

TEST(Diff, IntegrationNewerWinsOnOverlap) {
  Diff older(4), newer(4);
  Bytes a{std::byte{1}, std::byte{1}, std::byte{1}, std::byte{1}};
  Bytes b{std::byte{2}, std::byte{2}};
  older.addRun(0, a);
  newer.addRun(2, b);
  Diff merged = Diff::integrate(older, newer);
  Bytes page(kPageSize, std::byte{0});
  merged.apply(page);
  EXPECT_EQ(page[0], std::byte{1});
  EXPECT_EQ(page[1], std::byte{1});
  EXPECT_EQ(page[2], std::byte{2});
  EXPECT_EQ(page[3], std::byte{2});
}

// The overlay Diff::integrate used before its run merge: both diffs painted
// onto a page-sized scratch, maximal covered ranges read back. The merge
// must reproduce it run for run and byte for byte.
Diff integrateOverlay(const Diff& older, const Diff& newer) {
  std::array<std::byte, kPageSize> bytes{};
  std::array<bool, kPageSize> covered{};
  auto overlay = [&](const Diff& d) {
    size_t pos = 0;
    for (const Diff::Run& r : d.runs()) {
      if (r.length > 0)
        std::memcpy(bytes.data() + r.offset, d.data().data() + pos, r.length);
      std::fill(covered.begin() + r.offset,
                covered.begin() + r.offset + r.length, true);
      pos += r.length;
    }
  };
  overlay(older);
  overlay(newer);
  Diff out(older.page());
  size_t i = 0;
  while (i < kPageSize) {
    if (!covered[i]) {
      ++i;
      continue;
    }
    size_t start = i;
    while (i < kPageSize && covered[i]) ++i;
    out.addRun(static_cast<uint16_t>(start),
               ByteSpan(bytes).subspan(start, i - start));
  }
  return out;
}

::testing::AssertionResult sameDiff(const Diff& got, const Diff& want) {
  if (got.page() != want.page())
    return ::testing::AssertionFailure()
           << "page " << got.page() << " vs " << want.page();
  if (got.runs().size() != want.runs().size())
    return ::testing::AssertionFailure() << got.runs().size() << " runs vs "
                                         << want.runs().size();
  for (size_t k = 0; k < got.runs().size(); ++k) {
    const Diff::Run& a = got.runs()[k];
    const Diff::Run& b = want.runs()[k];
    if (a.offset != b.offset || a.length != b.length)
      return ::testing::AssertionFailure()
             << "run " << k << ": [" << a.offset << "+" << a.length
             << ") vs [" << b.offset << "+" << b.length << ")";
  }
  if (!std::equal(got.data().begin(), got.data().end(), want.data().begin(),
                  want.data().end()))
    return ::testing::AssertionFailure() << "data differs";
  return ::testing::AssertionSuccess();
}

// Runs appended with addRun: a third of them touch the run before (so they
// stay separate runs in the input), some are empty, a few are long.
Diff randomRuns(sim::Rng& rng, mem::PageId page) {
  Diff d(page);
  size_t at = rng.below(64);
  const int count = static_cast<int>(rng.below(24));
  for (int k = 0; k < count && at < kPageSize; ++k) {
    const size_t longest = rng.below(8) == 0 ? 1500 : 40;
    size_t len = rng.below(5) == 0 ? 0 : 1 + rng.below(longest);
    len = std::min(len, kPageSize - at);
    Bytes bytes(len);
    for (auto& b : bytes) b = static_cast<std::byte>(rng.below(256));
    d.addRun(static_cast<uint16_t>(at), bytes);
    at += len + (rng.below(3) == 0 ? 0 : rng.below(300));
  }
  return d;
}

// IS's shape: one 256-byte block of the page rewritten.
Diff blockRewrite(sim::Rng& rng, mem::PageId page) {
  Bytes bytes(256);
  for (auto& b : bytes) b = static_cast<std::byte>(rng.below(256));
  Diff d(page);
  d.addRun(static_cast<uint16_t>(rng.below(kPageSize / 256) * 256), bytes);
  return d;
}

TEST(Diff, IntegrateMatchesOverlayReference) {
  sim::Rng rng(2024);
  // Twin-scan diffs of successive versions: sparse, dense, full page.
  for (double density : {0.0, 0.01, 0.1, 0.5, 1.0}) {
    for (int trial = 0; trial < 40; ++trial) {
      Bytes base = randomPage(rng);
      Bytes v1 = base;
      mutatePage(rng, v1, density);
      Bytes v2 = trial % 4 == 0 ? randomPage(rng) : v1;  // full-page rewrite
      mutatePage(rng, v2, density);
      Diff older = Diff::create(5, v1, base);
      Diff newer = Diff::create(5, v2, v1);
      ASSERT_TRUE(sameDiff(Diff::integrate(older, newer),
                           integrateOverlay(older, newer)))
          << "density " << density << " trial " << trial;
      ASSERT_TRUE(sameDiff(Diff::integrate(newer, older),
                           integrateOverlay(newer, older)))
          << "density " << density << " trial " << trial << " (swapped)";
    }
  }
  // addRun-built diffs, with an empty diff on either side now and then.
  for (int trial = 0; trial < 3000; ++trial) {
    Diff older = trial % 10 == 0 ? Diff(6) : randomRuns(rng, 6);
    Diff newer = trial % 10 == 1 ? Diff(6) : randomRuns(rng, 6);
    ASSERT_TRUE(sameDiff(Diff::integrate(older, newer),
                         integrateOverlay(older, newer)))
        << "trial " << trial;
  }
  // sdGc-style fold chains: a page's base folded with each later version.
  for (int chain = 0; chain < 30; ++chain) {
    Diff merged = blockRewrite(rng, 7);
    Diff reference = merged;
    for (int version = 0; version < 40; ++version) {
      Diff d = chain % 3 == 0 ? randomRuns(rng, 7) : blockRewrite(rng, 7);
      merged = Diff::integrate(merged, d);
      reference = integrateOverlay(reference, d);
      ASSERT_TRUE(sameDiff(merged, reference))
          << "chain " << chain << " version " << version;
    }
  }
}

Bytes encodeDiff(const std::vector<std::pair<uint16_t, uint16_t>>& runs) {
  Writer w;
  w.u32(9);
  w.u32(static_cast<uint32_t>(runs.size()));
  size_t total = 0;
  for (const auto& [off, len] : runs) {
    w.u16(off);
    w.u16(len);
    total += len;
  }
  w.blob(Bytes(total, std::byte{1}));
  return w.take();
}

Diff decodeDiff(const Bytes& encoded) {
  Reader r(encoded);
  return Diff::deserialize(r);
}

// integrate's merge needs every diff's runs ascending and disjoint: the
// wire decoder and addRun both refuse anything else.
TEST(Diff, DeserializeRejectsMalformedRuns) {
  EXPECT_EQ(decodeDiff(encodeDiff({{0, 4}, {4, 8}, {100, 4}})).runs().size(),
            3u);
  EXPECT_THROW(decodeDiff(encodeDiff({{4090, 8}})), Error);  // past the page
  EXPECT_THROW(decodeDiff(encodeDiff({{0, 8}, {4, 8}})), Error);  // overlap
  EXPECT_THROW(decodeDiff(encodeDiff({{100, 4}, {0, 4}})), Error);  // order
  Writer w;
  w.u32(9);
  w.u32(1u << 30);  // more runs than the message holds
  EXPECT_THROW(decodeDiff(w.take()), Error);

  Diff d(9);
  const Bytes four(4, std::byte{2});
  d.addRun(8, four);
  d.addRun(12, four);  // touching the previous run is fine
  EXPECT_THROW(d.addRun(14, four), Error);
  EXPECT_THROW(d.addRun(0, four), Error);
  EXPECT_THROW(d.addRun(kPageSize - 2, four), Error);
  EXPECT_EQ(d.runs().size(), 2u);
}

TEST(PageStore, TwinLifecycle) {
  mem::PageStore store(4 * kPageSize);
  EXPECT_EQ(store.pageCount(), 4u);
  store.range(0, 8)[0] = std::byte{9};
  store.makeTwin(0);
  EXPECT_TRUE(store.hasTwin(0));
  store.range(0, 8)[0] = std::byte{7};
  Diff d = store.diffAgainstTwin(0);
  EXPECT_FALSE(d.empty());
  EXPECT_EQ(d.runs()[0].offset, 0u);
  store.dropTwin(0);
  EXPECT_FALSE(store.hasTwin(0));
}

// A page's state is one byte: the access state and a has-twin bit. Access
// changes keep the twin, and twin changes keep the access.
TEST(PageStore, AccessAndTwinShareOneByte) {
  mem::PageStore store(3 * kPageSize);
  for (mem::PageId p = 0; p < 3; ++p) {
    EXPECT_EQ(store.access(p), mem::Access::kNone);
    EXPECT_FALSE(store.hasTwin(p));
  }
  store.setAccess(1, mem::Access::kRead);
  store.makeTwin(1);
  EXPECT_EQ(store.access(1), mem::Access::kRead);
  store.setAccess(1, mem::Access::kWrite);
  EXPECT_TRUE(store.hasTwin(1));
  EXPECT_EQ(store.access(1), mem::Access::kWrite);
  store.setAccess(1, mem::Access::kNone);
  EXPECT_TRUE(store.hasTwin(1));
  store.setAccess(1, mem::Access::kRead);
  store.dropTwin(1);
  EXPECT_FALSE(store.hasTwin(1));
  EXPECT_EQ(store.access(1), mem::Access::kRead);
  store.dropTwin(1);  // no twin: a no-op
  EXPECT_FALSE(store.hasTwin(1));
  // The neighbours never moved.
  EXPECT_EQ(store.access(0), mem::Access::kNone);
  EXPECT_EQ(store.access(2), mem::Access::kNone);
  EXPECT_FALSE(store.hasTwin(0));
  EXPECT_FALSE(store.hasTwin(2));
}

// Twins live in a side table keyed by page. Many twins at once, dropped
// and remade in a scrambled order, each keep their own page's snapshot.
TEST(PageStore, ManyTwinsKeepTheirSnapshots) {
  constexpr mem::PageId kPages = 600;
  mem::PageStore store(kPages * kPageSize);
  auto stamp = [&store](mem::PageId p, uint8_t round) {
    std::fill_n(store.page(p).begin(), 16,
                static_cast<std::byte>((p * 7 + round) & 0xff));
  };
  auto twinHolds = [&store](mem::PageId p, uint8_t round) {
    const ByteSpan t = store.twin(p);
    return std::all_of(t.begin(), t.begin() + 16, [&](std::byte b) {
      return b == static_cast<std::byte>((p * 7 + round) & 0xff);
    });
  };
  std::vector<uint8_t> round(kPages, 0);
  for (mem::PageId p = 0; p < kPages; ++p) {
    stamp(p, 0);
    store.makeTwin(p);
    store.setAccess(p, mem::Access::kWrite);
  }
  sim::Rng rng(23);
  for (int step = 0; step < 3000; ++step) {
    const auto p = static_cast<mem::PageId>(rng.below(kPages));
    if (store.hasTwin(p)) {
      ASSERT_TRUE(twinHolds(p, round[p])) << "page " << p;
      store.dropTwin(p);
    } else {
      stamp(p, ++round[p]);
      store.makeTwin(p);
    }
    EXPECT_EQ(store.access(p), mem::Access::kWrite);
  }
  for (mem::PageId p = 0; p < kPages; ++p) {
    if (!store.hasTwin(p)) continue;
    ASSERT_TRUE(twinHolds(p, round[p])) << "page " << p;
    // The page still equals its twin, so its diff is empty.
    EXPECT_TRUE(store.diffAgainstTwin(p).empty()) << "page " << p;
  }
}

TEST(PageStore, SizeRoundsToPages) {
  mem::PageStore store(kPageSize + 1);
  EXPECT_EQ(store.pageCount(), 2u);
  EXPECT_EQ(store.sizeBytes(), 2 * kPageSize);
}

TEST(VClock, CoversAndMerge) {
  mem::VClock a(3), b(3);
  a[0] = 2;
  b[1] = 5;
  EXPECT_FALSE(a.covers(b));
  EXPECT_FALSE(b.covers(a));
  mem::VClock m = a;
  m.merge(b);
  EXPECT_TRUE(m.covers(a));
  EXPECT_TRUE(m.covers(b));
  EXPECT_EQ(m[0], 2u);
  EXPECT_EQ(m[1], 5u);
  EXPECT_TRUE(m.hasSeen(1, 5));
  EXPECT_FALSE(m.hasSeen(1, 6));
}

TEST(VClock, SerializationRoundTrip) {
  mem::VClock a(4);
  a[2] = 17;
  Writer w;
  a.serialize(w);
  Bytes enc = w.take();
  Reader r(enc);
  EXPECT_EQ(mem::VClock::deserialize(r), a);
}

TEST(ViewMap, ViewsArePageAlignedAndDisjoint) {
  dsm::ViewMap vm;
  dsm::ViewId a = vm.defineView(100);
  dsm::ViewId b = vm.defineView(5000);
  dsm::ViewId c = vm.defineView(1);
  EXPECT_EQ(vm.view(a).offset % kPageSize, 0u);
  EXPECT_EQ(vm.view(b).offset, kPageSize);      // a occupies one page
  EXPECT_EQ(vm.view(c).offset, 3 * kPageSize);  // b occupies two
  EXPECT_EQ(vm.viewOfPage(0), a);
  EXPECT_EQ(vm.viewOfPage(1), b);
  EXPECT_EQ(vm.viewOfPage(2), b);
  EXPECT_EQ(vm.viewOfPage(3), c);
  EXPECT_EQ(vm.viewOfPage(4), std::nullopt);
}

TEST(ViewMap, RawAllocationsPackAndShareNoViews) {
  dsm::ViewMap vm;
  size_t x = vm.allocRaw(12);
  size_t y = vm.allocRaw(4);
  EXPECT_EQ(y, x + 16);  // 8-aligned packing (false sharing by design)
  EXPECT_EQ(vm.viewOfPage(0), std::nullopt);
  dsm::ViewId v = vm.defineView(10);
  EXPECT_EQ(vm.view(v).offset % kPageSize, 0u);
}

TEST(ViewMap, HomesOverrideRoundRobin) {
  dsm::ViewMap vm;
  dsm::ViewId a = vm.defineView(8);       // default: id % nprocs
  dsm::ViewId b = vm.defineView(8, 3);    // pinned
  dsm::ViewId c = vm.defineView(8, 100);  // pinned, wraps
  EXPECT_EQ(vm.managerOf(a, 4), 0u);
  EXPECT_EQ(vm.managerOf(b, 4), 3u);
  EXPECT_EQ(vm.managerOf(c, 4), 0u);
  // Each manager numbers its own views densely, in view order.
  vm.placeHomes(4);
  EXPECT_EQ(vm.homeSlot(a), 0u);
  EXPECT_EQ(vm.homeSlot(c), 1u);
  EXPECT_EQ(vm.homeSlot(b), 0u);
  EXPECT_EQ(vm.homedViews(0), 2u);
  EXPECT_EQ(vm.homedViews(1), 0u);
  EXPECT_EQ(vm.homedViews(3), 1u);
}

TEST(ViewMap, ContainsRange) {
  dsm::ViewMap vm;
  dsm::ViewId v = vm.defineView(100);
  size_t off = vm.view(v).offset;
  EXPECT_TRUE(vm.viewContainsRange(v, off, 100));
  EXPECT_TRUE(vm.viewContainsRange(v, off + 50, 50));
  EXPECT_FALSE(vm.viewContainsRange(v, off + 50, 51));
}

TEST(BytesIO, WriterReaderRoundTrip) {
  Writer w;
  w.u8(7);
  w.u16(300);
  w.u32(70000);
  w.u64(1ull << 40);
  w.i64(-5);
  w.f64(3.25);
  Bytes inner{std::byte{1}, std::byte{2}};
  w.blob(inner);
  Bytes enc = w.take();
  Reader r(enc);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 300);
  EXPECT_EQ(r.u32(), 70000u);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_EQ(r.i64(), -5);
  EXPECT_EQ(r.f64(), 3.25);
  ByteSpan blob = r.blob();
  EXPECT_EQ(blob.size(), 2u);
  EXPECT_TRUE(r.done());
}

TEST(BytesIO, ShortReadThrows) {
  Bytes enc{std::byte{1}};
  Reader r(enc);
  EXPECT_THROW(r.u32(), Error);
}

}  // namespace
}  // namespace vodsm
