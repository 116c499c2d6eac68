#include "apps/sor.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "vopp/cluster.hpp"

namespace vodsm::apps {

namespace {

double cell0(uint64_t seed, size_t i, size_t j) {
  uint64_t z = seed ^ (i * 0x9e3779b97f4a7c15ULL + j * 0xd1342543de82ef95ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

// Relax all cells of `color` in rows [row_first, row_last] of a grid stored
// with stride `cols`, where grid[0] is global row `base`.
void relaxRows(double* grid, size_t base, size_t row_first, size_t row_last,
               size_t cols, size_t rows_total, int color, double omega) {
  for (size_t i = row_first; i <= row_last; ++i) {
    if (i == 0 || i + 1 >= rows_total) continue;  // fixed boundary
    double* row = grid + (i - base) * cols;
    const double* up = row - cols;
    const double* down = row + cols;
    size_t j = 1 + ((i + 1 + static_cast<size_t>(color)) % 2);
    for (; j + 1 < cols; j += 2) {
      const double nb = up[j] + down[j] + row[j - 1] + row[j + 1];
      row[j] = (1.0 - omega) * row[j] + omega * 0.25 * nb;
    }
  }
}

}  // namespace

double sorSerialChecksum(const SorParams& p) {
  std::vector<double> g(p.rows * p.cols);
  for (size_t i = 0; i < p.rows; ++i)
    for (size_t j = 0; j < p.cols; ++j) g[i * p.cols + j] = cell0(p.seed, i, j);
  for (int it = 0; it < p.iterations; ++it)
    for (int color = 0; color < 2; ++color)
      relaxRows(g.data(), 0, 1, p.rows - 2, p.cols, p.rows, color, p.omega);
  double sum = 0;
  for (double v : g) sum += v;
  return sum;
}

namespace {

struct SorLayout {
  // VOPP
  std::vector<dsm::ViewId> block_views;  // rows lo..hi-1 per proc
  // Border views are split per side so each neighbour fetches exactly the
  // row it consumes: [proc][parity * 2 + side] with side 0 = the block's
  // top row (read by the previous processor's successor... i.e. by proc-1's
  // lower neighbour) and side 1 = the bottom row (read by proc+1).
  std::vector<std::array<dsm::ViewId, 4>> border;
  dsm::ViewId result_view = 0;
  // traditional
  size_t grid_off = 0;
  size_t result_off = 0;
};

size_t rowLo(size_t rows, int nprocs, int pid) {
  return static_cast<size_t>(pid) * rows / static_cast<size_t>(nprocs);
}
size_t rowHi(size_t rows, int nprocs, int pid) {
  return static_cast<size_t>(pid + 1) * rows / static_cast<size_t>(nprocs);
}

sim::Task<void> sorVopp(vopp::Node& node, const SorParams& p,
                        const SorLayout& lay) {
  const size_t R = p.rows, C = p.cols;
  const int P = node.nprocs();
  const int pid = node.id();
  const size_t lo = rowLo(R, P, pid), hi = rowHi(R, P, pid);
  const size_t mine = hi - lo;
  const size_t row_bytes = C * sizeof(double);
  const bool has_prev = pid > 0, has_next = pid < P - 1;

  // Processor 0 distributes the grid through the block views.
  if (pid == 0) {
    for (int q = 0; q < P; ++q) {
      dsm::ViewId v = lay.block_views[static_cast<size_t>(q)];
      const size_t qlo = rowLo(R, P, q), qhi = rowHi(R, P, q);
      co_await node.acquireView(v);
      size_t off = node.cluster().viewOffset(v);
      co_await node.touchWrite(off, (qhi - qlo) * row_bytes);
      auto* m = reinterpret_cast<double*>(
          node.mem(off, (qhi - qlo) * row_bytes).data());
      for (size_t i = qlo; i < qhi; ++i)
        for (size_t j = 0; j < C; ++j)
          m[(i - qlo) * C + j] = cell0(p.seed, i, j);
      node.chargeOps((qhi - qlo) * C, p.flop_ns);
      co_await node.releaseView(v);
    }
  }
  co_await node.barrier();

  // Local buffer: ghost row above + my rows + ghost row below.
  std::vector<double> buf((mine + 2) * C, 0.0);
  auto localRow = [&](size_t global_i) {
    return buf.data() + (global_i - lo + 1) * C;
  };
  {
    dsm::ViewId v = lay.block_views[static_cast<size_t>(pid)];
    co_await node.acquireView(v);
    co_await node.copyOut(
        node.cluster().viewOffset(v),
        MutByteSpan(reinterpret_cast<std::byte*>(localRow(lo)),
                    mine * row_bytes));
    co_await node.releaseView(v);
  }
  co_await node.barrier();

  int parity = 0;
  for (int it = 0; it < p.iterations; ++it) {
    for (int color = 0; color < 2; ++color) {
      // 1. Publish the border rows a neighbour will read.
      if (has_prev) {
        dsm::ViewId bv = lay.border[static_cast<size_t>(pid)]
                                   [static_cast<size_t>(parity * 2)];
        co_await node.acquireView(bv);
        co_await node.copyIn(node.cluster().viewOffset(bv),
                             ByteSpan(reinterpret_cast<const std::byte*>(
                                          localRow(lo)),
                                      row_bytes));
        co_await node.releaseView(bv);
      }
      if (has_next) {
        dsm::ViewId bv = lay.border[static_cast<size_t>(pid)]
                                   [static_cast<size_t>(parity * 2 + 1)];
        co_await node.acquireView(bv);
        co_await node.copyIn(node.cluster().viewOffset(bv),
                             ByteSpan(reinterpret_cast<const std::byte*>(
                                          localRow(hi - 1)),
                                      row_bytes));
        co_await node.releaseView(bv);
      }
      co_await node.barrier();

      // 2. Fetch the neighbours' adjacent rows into the ghost rows. The
      // paper's pseudo-code uses exclusive acquires here; we match it.
      if (has_prev) {
        dsm::ViewId bv = lay.border[static_cast<size_t>(pid - 1)]
                                   [static_cast<size_t>(parity * 2 + 1)];
        co_await node.acquireView(bv);  // their bottom row
        co_await node.copyOut(node.cluster().viewOffset(bv),
                              MutByteSpan(reinterpret_cast<std::byte*>(
                                              buf.data()),
                                          row_bytes));
        co_await node.releaseView(bv);
      }
      if (has_next) {
        dsm::ViewId bv = lay.border[static_cast<size_t>(pid + 1)]
                                   [static_cast<size_t>(parity * 2)];
        co_await node.acquireView(bv);  // their top row
        co_await node.copyOut(node.cluster().viewOffset(bv),
                              MutByteSpan(reinterpret_cast<std::byte*>(
                                              localRow(hi)),
                                          row_bytes));
        co_await node.releaseView(bv);
      }

      // 3. Relax my rows in the local buffer (buf + C is global row `lo`,
      // so ghost rows sit directly above/below the block).
      if (mine > 0) {
        relaxRows(buf.data() + C, lo, std::max(lo, size_t{1}), hi - 1, C, R,
                  color, p.omega);
        node.chargeOps(mine * C / 2 * 4, p.flop_ns);
      }
      parity ^= 1;
    }
  }

  // Collect.
  {
    dsm::ViewId v = lay.block_views[static_cast<size_t>(pid)];
    co_await node.acquireView(v);
    co_await node.copyIn(node.cluster().viewOffset(v),
                         ByteSpan(reinterpret_cast<const std::byte*>(
                                      localRow(lo)),
                                  mine * row_bytes));
    co_await node.releaseView(v);
  }
  co_await node.barrier();
  if (pid == 0) {
    double sum = 0;
    for (int q = 0; q < P; ++q) {
      dsm::ViewId v = lay.block_views[static_cast<size_t>(q)];
      const size_t rows = rowHi(R, P, q) - rowLo(R, P, q);
      co_await node.acquireRview(v);
      size_t off = node.cluster().viewOffset(v);
      co_await node.touchRead(off, rows * row_bytes);
      auto* m = reinterpret_cast<const double*>(
          node.memView(off, rows * row_bytes).data());
      for (size_t i = 0; i < rows * C; ++i) sum += m[i];
      node.chargeOps(rows * C, p.flop_ns);
      co_await node.releaseRview(v);
    }
    co_await node.acquireView(lay.result_view);
    size_t roff = node.cluster().viewOffset(lay.result_view);
    co_await node.touchWrite(roff, 8);
    std::memcpy(node.mem(roff, 8).data(), &sum, 8);
    co_await node.releaseView(lay.result_view);
  }
  co_await node.barrier();
}

sim::Task<void> sorTraditional(vopp::Node& node, const SorParams& p,
                               const SorLayout& lay) {
  const size_t R = p.rows, C = p.cols;
  const int P = node.nprocs();
  const int pid = node.id();
  const size_t lo = rowLo(R, P, pid), hi = rowHi(R, P, pid);
  const size_t row_bytes = C * sizeof(double);
  auto rowOff = [&](size_t i) { return lay.grid_off + i * row_bytes; };

  if (pid == 0) {
    co_await node.touchWrite(lay.grid_off, R * row_bytes);
    auto* m = reinterpret_cast<double*>(
        node.mem(lay.grid_off, R * row_bytes).data());
    for (size_t i = 0; i < R; ++i)
      for (size_t j = 0; j < C; ++j) m[i * C + j] = cell0(p.seed, i, j);
    node.chargeOps(R * C, p.flop_ns);
  }
  co_await node.barrier();

  for (int it = 0; it < p.iterations; ++it) {
    for (int color = 0; color < 2; ++color) {
      const size_t read_lo = lo == 0 ? 0 : lo - 1;
      const size_t read_hi = hi == R ? R : hi + 1;
      const size_t upd_lo = std::max(lo, size_t{1});
      const size_t upd_hi = std::min(hi, R - 1);
      if (upd_hi > upd_lo) {
        co_await node.touchRead(rowOff(read_lo),
                                (read_hi - read_lo) * row_bytes);
        co_await node.touchWrite(rowOff(upd_lo), (upd_hi - upd_lo) * row_bytes);
        auto* g = reinterpret_cast<double*>(
            node.mem(lay.grid_off, R * row_bytes).data());
        relaxRows(g, 0, upd_lo, upd_hi - 1, C, R, color, p.omega);
        node.chargeOps((upd_hi - upd_lo) * C / 2 * 4, p.flop_ns);
      }
      co_await node.barrier();
    }
  }

  if (pid == 0) {
    co_await node.touchRead(lay.grid_off, R * row_bytes);
    auto* m = reinterpret_cast<const double*>(
        node.memView(lay.grid_off, R * row_bytes).data());
    double sum = 0;
    for (size_t i = 0; i < R * C; ++i) sum += m[i];
    node.chargeOps(R * C, p.flop_ns);
    co_await node.touchWrite(lay.result_off, 8);
    std::memcpy(node.mem(lay.result_off, 8).data(), &sum, 8);
  }
  co_await node.barrier();
}

}  // namespace

SorRun runSor(const harness::RunConfig& config, const SorParams& params,
              SorVariant variant) {
  VODSM_CHECK_MSG(variant != SorVariant::kTraditional ||
                      config.protocol == dsm::Protocol::kLrcDiff,
                  "traditional SOR runs on LRC_d only");
  VODSM_CHECK_MSG(params.rows >= static_cast<size_t>(config.nprocs) * 2,
                  "SOR needs at least two rows per processor");
  vopp::Cluster cluster(config);
  SorLayout lay;
  const size_t row_bytes = params.cols * sizeof(double);
  if (variant == SorVariant::kVopp) {
    for (int q = 0; q < config.nprocs; ++q) {
      size_t rows = rowHi(params.rows, config.nprocs, q) -
                    rowLo(params.rows, config.nprocs, q);
      lay.block_views.push_back(cluster.defineView(rows * row_bytes));
    }
    for (int q = 0; q < config.nprocs; ++q) {
      auto home = static_cast<dsm::NodeId>(q);
      lay.border.push_back({cluster.defineView(row_bytes, home),
                            cluster.defineView(row_bytes, home),
                            cluster.defineView(row_bytes, home),
                            cluster.defineView(row_bytes, home)});
    }
    lay.result_view = cluster.defineView(sizeof(double));
    lay.result_off = cluster.viewOffset(lay.result_view);
  } else {
    lay.grid_off = cluster.allocShared(params.rows * row_bytes);
    lay.result_off = cluster.allocShared(sizeof(double));
  }

  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    return variant == SorVariant::kVopp ? sorVopp(node, params, lay)
                                        : sorTraditional(node, params, lay);
  });

  SorRun out;
  out.result = cluster.result();
  auto raw = cluster.memoryOf(0, lay.result_off, 8);
  std::memcpy(&out.checksum, raw.data(), 8);
  return out;
}

}  // namespace vodsm::apps
