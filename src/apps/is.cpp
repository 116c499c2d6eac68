#include "apps/is.hpp"

#include <algorithm>

#include "vopp/cluster.hpp"

namespace vodsm::apps {

uint32_t isKey(uint64_t seed, int iteration, uint64_t global_index,
               uint32_t max_key) {
  uint64_t z = (seed ^ (static_cast<uint64_t>(iteration) *
                        0xd1342543de82ef95ULL)) +
               global_index * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<uint32_t>(z % (static_cast<uint64_t>(max_key) + 1));
}

std::vector<int64_t> isSerialRankSums(const IsParams& p, int nprocs) {
  const size_t buckets = static_cast<size_t>(p.max_key) + 1;
  const int last = p.iterations - 1;
  std::vector<int64_t> counts(buckets, 0);
  for (size_t i = 0; i < p.n_keys; ++i)
    counts[isKey(p.key_seed, last, i, p.max_key)]++;
  // prefix[k] = number of keys strictly smaller than k == rank of key k.
  std::vector<int64_t> prefix(buckets, 0);
  for (size_t k = 1; k < buckets; ++k)
    prefix[k] = prefix[k - 1] + counts[k - 1];
  std::vector<int64_t> sums(static_cast<size_t>(nprocs), 0);
  const size_t per = p.n_keys / static_cast<size_t>(nprocs);
  for (int pr = 0; pr < nprocs; ++pr) {
    const size_t lo = static_cast<size_t>(pr) * per;
    const size_t hi = pr == nprocs - 1 ? p.n_keys : lo + per;
    for (size_t i = lo; i < hi; ++i)
      sums[static_cast<size_t>(pr)] +=
          prefix[isKey(p.key_seed, last, i, p.max_key)];
  }
  return sums;
}

namespace {

// Both variants run the same ranking algorithm: every processor publishes
// its histogram row, reduces one bucket partition across all rows into a
// global section, and then reads the full global counts to rank its keys.
// The VOPP conversion (paper Section 3) replaces the raw shared regions
// with views: one view per histogram row, one per global section — so every
// shared page has a single writer and the buffer-reuse barrier becomes
// redundant (IsVariant::kVoppFewerBarriers removes it, Section 3.2).
struct IsLayout {
  size_t buckets = 0;
  // VOPP: views sized to how they are consumed (the paper's Section 3.6
  // rule of thumb). Contribution view (s, q) holds processor q's counts for
  // bucket partition s; ids are chosen so q manages its own slices, making
  // the per-iteration writes home-local, while the partition owner Rviews
  // exactly the slices it reduces.
  std::vector<dsm::ViewId> contrib_views;  // [s * P + q]: width(s) counts
  std::vector<dsm::ViewId> section_views;  // reduced global count partitions
  dsm::ViewId result_view = 0;
  // traditional: raw regions.
  size_t raw_hist_off = 0;     // [proc][bucket] counts
  size_t raw_buckets_off = 0;  // reduced global counts
  size_t result_off = 0;

  // Bucket partition reduced (and owned) by processor s.
  size_t sectionLo(int s, int nprocs) const {
    return static_cast<size_t>(s) * buckets / static_cast<size_t>(nprocs);
  }
  size_t sectionHi(int s, int nprocs) const {
    return static_cast<size_t>(s + 1) * buckets / static_cast<size_t>(nprocs);
  }
};

IsLayout buildLayout(vopp::Cluster& cluster, const IsParams& p, bool vopp) {
  IsLayout lay;
  lay.buckets = static_cast<size_t>(p.max_key) + 1;
  const int P = cluster.nprocs();
  if (vopp) {
    for (int s = 0; s < P; ++s) {
      size_t n = lay.sectionHi(s, P) - lay.sectionLo(s, P);
      for (int q = 0; q < P; ++q) {
        dsm::ViewId v = cluster.defineView(std::max<size_t>(n, 1) * 4);
        VODSM_CHECK(v % static_cast<uint32_t>(P) ==
                    static_cast<uint32_t>(q));  // q manages its own slice
        lay.contrib_views.push_back(v);
      }
    }
    for (int s = 0; s < P; ++s) {
      size_t n = lay.sectionHi(s, P) - lay.sectionLo(s, P);
      lay.section_views.push_back(
          cluster.defineView(std::max<size_t>(n, 1) * 4));
    }
    lay.result_view =
        cluster.defineView(static_cast<size_t>(P) * sizeof(int64_t));
    lay.result_off = cluster.viewOffset(lay.result_view);
  } else {
    // Traditional barrier-only IS (paper Table 1 reports zero lock acquires
    // for LRC_d).
    lay.raw_hist_off =
        cluster.allocShared(static_cast<size_t>(P) * lay.buckets * 4);
    lay.raw_buckets_off = cluster.allocShared(lay.buckets * 4);
    lay.result_off =
        cluster.allocShared(static_cast<size_t>(P) * sizeof(int64_t));
  }
  return lay;
}

// One processor's run, shared skeleton with per-variant hooks inlined.
sim::Task<void> isProgram(vopp::Node& node, const IsParams& p,
                          const IsLayout& lay, IsVariant variant) {
  const bool vopp = variant != IsVariant::kTraditional;
  const bool keep_reuse_barrier = variant != IsVariant::kVoppFewerBarriers;
  const int P = node.nprocs();
  const int pid = node.id();
  const size_t per = p.n_keys / static_cast<size_t>(P);
  const size_t lo = static_cast<size_t>(pid) * per;
  const size_t hi = pid == P - 1 ? p.n_keys : lo + per;
  const size_t mine = hi - lo;

  // Local buffers (paper Section 3.1): keys and histogram live outside DSM.
  std::vector<uint32_t> keys(mine);
  std::vector<uint32_t> local_counts(lay.buckets, 0);
  std::vector<uint32_t> global_counts(lay.buckets, 0);
  std::vector<int64_t> prefix(lay.buckets, 0);
  int64_t rank_sum = 0;

  const size_t blo = lay.sectionLo(pid, P);
  const size_t bhi = lay.sectionHi(pid, P);

  for (int iter = 0; iter < p.iterations; ++iter) {
    // 1. This round's keys and their local histogram.
    for (size_t i = 0; i < mine; ++i)
      keys[i] = isKey(p.key_seed, iter, lo + i, p.max_key);
    std::fill(local_counts.begin(), local_counts.end(), 0);
    for (uint32_t k : keys) local_counts[k]++;
    node.chargeOps(mine + lay.buckets, p.op_ns);

    // 2. Publish my histogram: one slice per partition's contribution view
    // (VOPP), or my row of the raw histogram matrix (traditional).
    if (vopp) {
      for (int s = 0; s < P; ++s) {
        const size_t slo = lay.sectionLo(s, P);
        const size_t width = lay.sectionHi(s, P) - slo;
        if (width == 0) continue;
        // My own slice view: the manager is this node, so these acquires
        // and the release-time diff push never touch the network.
        dsm::ViewId v =
            lay.contrib_views[static_cast<size_t>(s) * static_cast<size_t>(P) +
                              static_cast<size_t>(pid)];
        co_await node.acquireView(v);
        co_await node.copyIn(node.cluster().viewOffset(v),
                             ByteSpan(reinterpret_cast<const std::byte*>(
                                          local_counts.data() + slo),
                                      width * 4));
        co_await node.releaseView(v);
      }
    } else {
      size_t row_off =
          lay.raw_hist_off + static_cast<size_t>(pid) * lay.buckets * 4;
      co_await node.touchWrite(row_off, lay.buckets * 4);
      std::memcpy(node.mem(row_off, lay.buckets * 4).data(),
                  local_counts.data(), lay.buckets * 4);
      node.chargeOps(lay.buckets, p.op_ns);
    }
    co_await node.barrier();

    // 3. Reduce my bucket partition across every processor's contribution
    // into the shared global section I own.
    if (bhi > blo) {
      const size_t width = bhi - blo;
      std::vector<uint32_t> sum(width, 0);
      if (vopp) {
        for (int q = 0; q < P; ++q) {
          dsm::ViewId v = lay.contrib_views[static_cast<size_t>(pid) *
                                                static_cast<size_t>(P) +
                                            static_cast<size_t>(q)];
          co_await node.acquireRview(v);
          size_t off = node.cluster().viewOffset(v);
          co_await node.touchRead(off, width * 4);
          auto* slice = reinterpret_cast<const uint32_t*>(
              node.memView(off, width * 4).data());
          for (size_t k = 0; k < width; ++k) sum[k] += slice[k];
          co_await node.releaseRview(v);
        }
      } else {
        std::copy(local_counts.begin() + static_cast<ptrdiff_t>(blo),
                  local_counts.begin() + static_cast<ptrdiff_t>(bhi),
                  sum.begin());
        for (int q = 0; q < P; ++q) {
          if (q == pid) continue;  // own row is already in hand
          size_t off = lay.raw_hist_off +
                       static_cast<size_t>(q) * lay.buckets * 4 + blo * 4;
          co_await node.touchRead(off, width * 4);
          auto* row = reinterpret_cast<const uint32_t*>(
              node.memView(off, width * 4).data());
          for (size_t k = 0; k < width; ++k) sum[k] += row[k];
        }
      }
      node.chargeOps(width * static_cast<size_t>(P), p.op_ns);
      if (vopp) {
        dsm::ViewId v = lay.section_views[static_cast<size_t>(pid)];
        co_await node.acquireView(v);
        co_await node.copyIn(node.cluster().viewOffset(v),
                             ByteSpan(reinterpret_cast<const std::byte*>(
                                          sum.data()),
                                      sum.size() * 4));
        co_await node.releaseView(v);
      } else {
        size_t goff = lay.raw_buckets_off + blo * 4;
        co_await node.touchWrite(goff, (bhi - blo) * 4);
        std::memcpy(node.mem(goff, (bhi - blo) * 4).data(), sum.data(),
                    (bhi - blo) * 4);
      }
      std::copy(sum.begin(), sum.end(),
                global_counts.begin() + static_cast<ptrdiff_t>(blo));
    }
    co_await node.barrier();

    // 4. Read phase: pull the other partitions' global counts, build prefix
    // sums, rank this round's keys.
    for (int s = 0; s < P; ++s) {
      if (s == pid) continue;  // own section computed locally
      const size_t slo = lay.sectionLo(s, P);
      const size_t n = lay.sectionHi(s, P) - slo;
      if (n == 0) continue;
      if (vopp) {
        dsm::ViewId v = lay.section_views[static_cast<size_t>(s)];
        co_await node.acquireRview(v);
        size_t off = node.cluster().viewOffset(v);
        co_await node.touchRead(off, n * 4);
        auto* g = reinterpret_cast<const uint32_t*>(
            node.memView(off, n * 4).data());
        std::copy(g, g + n,
                  global_counts.begin() + static_cast<ptrdiff_t>(slo));
        co_await node.releaseRview(v);
      } else {
        size_t off = lay.raw_buckets_off + slo * 4;
        co_await node.touchRead(off, n * 4);
        auto* g = reinterpret_cast<const uint32_t*>(
            node.memView(off, n * 4).data());
        std::copy(g, g + n,
                  global_counts.begin() + static_cast<ptrdiff_t>(slo));
      }
    }
    prefix[0] = 0;
    for (size_t k = 1; k < lay.buckets; ++k)
      prefix[k] = prefix[k - 1] + global_counts[k - 1];
    rank_sum = 0;
    for (uint32_t k : keys) rank_sum += prefix[k];
    node.chargeOps(lay.buckets + 2 * mine, p.op_ns);

    // 5. Buffer-reuse barrier. The traditional program must keep it (the
    // raw rows are about to be overwritten while stragglers may still be
    // reading). Under VOPP, view exclusivity plus the two phase barriers
    // already order every reuse (Section 3.2) — kVoppFewerBarriers drops it.
    if (!vopp || keep_reuse_barrier) co_await node.barrier();
  }

  // Publish the final checksum.
  if (vopp) {
    co_await node.acquireView(lay.result_view);
    co_await node.touchWrite(lay.result_off + static_cast<size_t>(pid) * 8, 8);
    *reinterpret_cast<int64_t*>(
        node.mem(lay.result_off + static_cast<size_t>(pid) * 8, 8).data()) =
        rank_sum;
    co_await node.releaseView(lay.result_view);
  } else {
    // Disjoint slots; barrier-synchronized (data-race free despite the
    // false sharing within the result page).
    co_await node.touchWrite(lay.result_off + static_cast<size_t>(pid) * 8, 8);
    *reinterpret_cast<int64_t*>(
        node.mem(lay.result_off + static_cast<size_t>(pid) * 8, 8).data()) =
        rank_sum;
  }
  co_await node.barrier();
  if (pid == 0) {
    if (vopp) {
      co_await node.acquireRview(lay.result_view);
      co_await node.touchRead(lay.result_off, static_cast<size_t>(P) * 8);
      co_await node.releaseRview(lay.result_view);
    } else {
      co_await node.touchRead(lay.result_off, static_cast<size_t>(P) * 8);
    }
  }
  co_await node.barrier();
}

}  // namespace

IsRun runIs(const harness::RunConfig& config, const IsParams& params,
            IsVariant variant) {
  VODSM_CHECK_MSG(variant != IsVariant::kTraditional ||
                      config.protocol == dsm::Protocol::kLrcDiff,
                  "traditional IS runs on LRC_d only");
  vopp::Cluster cluster(config);
  IsLayout lay =
      buildLayout(cluster, params, variant != IsVariant::kTraditional);
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    return isProgram(node, params, lay, variant);
  });

  IsRun out;
  out.result = cluster.result();
  out.rank_sums.resize(static_cast<size_t>(config.nprocs));
  auto raw = cluster.memoryOf(0, lay.result_off,
                              static_cast<size_t>(config.nprocs) * 8);
  std::memcpy(out.rank_sums.data(), raw.data(), raw.size());
  return out;
}

}  // namespace vodsm::apps
