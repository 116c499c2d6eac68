#include "apps/nn.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "msg/world.hpp"
#include "vopp/cluster.hpp"

namespace vodsm::apps {

namespace {

constexpr double kScale = 1099511627776.0;  // 2^40 fixed-point grad scale

double hash01(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ULL + b * 0xd1342543de82ef95ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

struct Net {
  int I, H, O;
  size_t weightCount() const {
    return static_cast<size_t>(I + 1) * static_cast<size_t>(H) +
           static_cast<size_t>(H + 1) * static_cast<size_t>(O);
  }
  // w1(i, j) at [i*H + j]; w2(j, k) at [(I+1)*H + j*O + k].
  size_t w1(int i, int j) const {
    return static_cast<size_t>(i) * static_cast<size_t>(H) +
           static_cast<size_t>(j);
  }
  size_t w2(int j, int k) const {
    return static_cast<size_t>(I + 1) * static_cast<size_t>(H) +
           static_cast<size_t>(j) * static_cast<size_t>(O) +
           static_cast<size_t>(k);
  }
};

void initWeights(const NnParams& p, const Net& net, std::vector<double>& w) {
  w.resize(net.weightCount());
  for (size_t i = 0; i < w.size(); ++i)
    w[i] = hash01(p.seed * 31 + 7, i, 0) * 0.5 - 0.25;
}

// Accumulate the batch gradient of one processor's sample slice.
void gradientSlice(const NnParams& p, const Net& net,
                   const std::vector<double>& w, size_t s_lo, size_t s_hi,
                   std::vector<double>& grad) {
  std::fill(grad.begin(), grad.end(), 0.0);
  std::vector<double> x(static_cast<size_t>(net.I));
  std::vector<double> h(static_cast<size_t>(net.H));
  std::vector<double> o(static_cast<size_t>(net.O));
  std::vector<double> t(static_cast<size_t>(net.O));
  std::vector<double> dout(static_cast<size_t>(net.O));
  std::vector<double> dh(static_cast<size_t>(net.H));
  for (size_t s = s_lo; s < s_hi; ++s) {
    for (int i = 0; i < net.I; ++i)
      x[static_cast<size_t>(i)] =
          hash01(p.seed, s, static_cast<uint64_t>(i)) * 2 - 1;
    for (int k = 0; k < net.O; ++k)
      t[static_cast<size_t>(k)] =
          hash01(p.seed * 13 + 5, s, static_cast<uint64_t>(k)) * 2 - 1;
    for (int j = 0; j < net.H; ++j) {
      double a = w[net.w1(net.I, j)];
      for (int i = 0; i < net.I; ++i)
        a += w[net.w1(i, j)] * x[static_cast<size_t>(i)];
      h[static_cast<size_t>(j)] = std::tanh(a);
    }
    for (int k = 0; k < net.O; ++k) {
      double a = w[net.w2(net.H, k)];
      for (int j = 0; j < net.H; ++j)
        a += w[net.w2(j, k)] * h[static_cast<size_t>(j)];
      o[static_cast<size_t>(k)] = std::tanh(a);
    }
    for (int k = 0; k < net.O; ++k) {
      double ok = o[static_cast<size_t>(k)];
      dout[static_cast<size_t>(k)] =
          (ok - t[static_cast<size_t>(k)]) * (1 - ok * ok);
    }
    for (int j = 0; j < net.H; ++j) {
      double acc = 0;
      for (int k = 0; k < net.O; ++k)
        acc += w[net.w2(j, k)] * dout[static_cast<size_t>(k)];
      double hj = h[static_cast<size_t>(j)];
      dh[static_cast<size_t>(j)] = acc * (1 - hj * hj);
    }
    for (int j = 0; j < net.H; ++j) {
      for (int i = 0; i < net.I; ++i)
        grad[net.w1(i, j)] +=
            x[static_cast<size_t>(i)] * dh[static_cast<size_t>(j)];
      grad[net.w1(net.I, j)] += dh[static_cast<size_t>(j)];
    }
    for (int k = 0; k < net.O; ++k) {
      for (int j = 0; j < net.H; ++j)
        grad[net.w2(j, k)] +=
            h[static_cast<size_t>(j)] * dout[static_cast<size_t>(k)];
      grad[net.w2(net.H, k)] += dout[static_cast<size_t>(k)];
    }
  }
}

void quantize(const std::vector<double>& grad, std::vector<int64_t>& q) {
  q.resize(grad.size());
  for (size_t i = 0; i < grad.size(); ++i)
    q[i] = static_cast<int64_t>(std::llround(grad[i] * kScale));
}

void applyDeltas(std::vector<double>& w, const std::vector<int64_t>& q,
                 double lr) {
  for (size_t i = 0; i < w.size(); ++i)
    w[i] -= lr * (static_cast<double>(q[i]) / kScale);
}

double weightChecksum(const std::vector<double>& w) {
  double sum = 0;
  for (double v : w) sum += std::fabs(v);
  return sum;
}

size_t sampleLo(size_t samples, int nprocs, int pid) {
  return static_cast<size_t>(pid) * samples / static_cast<size_t>(nprocs);
}
size_t sampleHi(size_t samples, int nprocs, int pid) {
  return static_cast<size_t>(pid + 1) * samples / static_cast<size_t>(nprocs);
}

sim::Time epochComputeCost(const NnParams& p, const Net& net, size_t mine) {
  const uint64_t flops_per_sample =
      4ull * (static_cast<uint64_t>(net.I) * static_cast<uint64_t>(net.H) +
              static_cast<uint64_t>(net.H) * static_cast<uint64_t>(net.O)) +
      8ull * static_cast<uint64_t>(net.H + net.O);  // tanh etc.
  return static_cast<sim::Time>(flops_per_sample * mine) * p.flop_ns;
}

}  // namespace

double nnSerialChecksum(const NnParams& p, int nprocs) {
  Net net{p.inputs, p.hidden, p.outputs};
  std::vector<double> w;
  initWeights(p, net, w);
  std::vector<double> grad(net.weightCount());
  std::vector<int64_t> q, total(net.weightCount());
  for (int e = 0; e < p.epochs; ++e) {
    std::fill(total.begin(), total.end(), int64_t{0});
    for (int pr = 0; pr < nprocs; ++pr) {
      gradientSlice(p, net, w, sampleLo(p.samples, nprocs, pr),
                    sampleHi(p.samples, nprocs, pr), grad);
      quantize(grad, q);
      for (size_t i = 0; i < total.size(); ++i) total[i] += q[i];
    }
    applyDeltas(w, total, p.lr);
  }
  return weightChecksum(w);
}

namespace {

// Both variants gather per-processor weight deltas at the master each
// epoch ("the errors of the weights are gathered from each processor"):
// every processor publishes its quantized gradient into its own delta slot,
// the master folds them, applies the update, and republishes the weights.
// No locks anywhere — the traditional program is barrier-only, and the VOPP
// conversion turns each slot into a view homed at the master (its consumer)
// plus a master-managed weights view read through acquire_Rview (Section
// 3.4). Homing the delta views at the master means VC_sd's release-time
// diff pushes deliver the gradients to where they are folded.
struct NnLayout {
  size_t nw = 0;
  // VOPP: delta view per processor plus the master-managed weights view.
  std::vector<dsm::ViewId> delta_views;
  dsm::ViewId weights_view = 0;
  dsm::ViewId result_view = 0;
  // traditional
  size_t weights_off = 0;
  size_t deltas_off = 0;  // P rows of nw int64 accumulators
  size_t result_off = 0;
};

sim::Task<void> nnVopp(vopp::Node& node, const NnParams& p,
                       const NnLayout& lay) {
  Net net{p.inputs, p.hidden, p.outputs};
  const int P = node.nprocs();
  const int pid = node.id();
  const size_t s_lo = sampleLo(p.samples, P, pid);
  const size_t s_hi = sampleHi(p.samples, P, pid);

  // Processor 0 publishes the initial weights.
  const size_t woff = node.cluster().viewOffset(lay.weights_view);
  if (pid == 0) {
    std::vector<double> w;
    initWeights(p, net, w);
    co_await node.acquireView(lay.weights_view);
    co_await node.copyIn(woff, ByteSpan(reinterpret_cast<const std::byte*>(
                                            w.data()),
                                        w.size() * 8));
    co_await node.releaseView(lay.weights_view);
  }
  co_await node.barrier();

  std::vector<double> w(lay.nw), grad(lay.nw);
  std::vector<int64_t> q;
  for (int e = 0; e < p.epochs; ++e) {
    // 1. Read the weights concurrently (Section 3.4: acquire_Rview keeps
    // the major phase parallel).
    co_await node.acquireRview(lay.weights_view);
    co_await node.copyOut(woff, MutByteSpan(reinterpret_cast<std::byte*>(
                                                w.data()),
                                            lay.nw * 8));
    co_await node.releaseRview(lay.weights_view);

    // 2. Local training on the local slice of the training set.
    gradientSlice(p, net, w, s_lo, s_hi, grad);
    quantize(grad, q);
    node.charge(epochComputeCost(p, net, s_hi - s_lo));

    // 3. Publish my quantized gradient into my own delta view (the view is
    // self-managed, so this stays off the wire until the master reads it).
    {
      dsm::ViewId v = lay.delta_views[static_cast<size_t>(pid)];
      co_await node.acquireView(v);
      co_await node.copyIn(node.cluster().viewOffset(v),
                           ByteSpan(reinterpret_cast<const std::byte*>(
                                        q.data()),
                                    lay.nw * 8));
      co_await node.releaseView(v);
    }
    co_await node.barrier();

    // 4. The master gathers every processor's deltas, folds them, and
    // republishes the weights.
    if (pid == 0) {
      std::vector<int64_t> total(lay.nw, 0);
      std::vector<int64_t> slot(lay.nw);
      for (int s = 0; s < P; ++s) {
        dsm::ViewId v = lay.delta_views[static_cast<size_t>(s)];
        co_await node.acquireRview(v);
        co_await node.copyOut(node.cluster().viewOffset(v),
                              MutByteSpan(reinterpret_cast<std::byte*>(
                                              slot.data()),
                                          lay.nw * 8));
        for (size_t k = 0; k < lay.nw; ++k) total[k] += slot[k];
        co_await node.releaseRview(v);
      }
      applyDeltas(w, total, p.lr);
      node.chargeOps(lay.nw * 2, 5);
      co_await node.acquireView(lay.weights_view);
      co_await node.copyIn(woff, ByteSpan(reinterpret_cast<const std::byte*>(
                                              w.data()),
                                          lay.nw * 8));
      co_await node.releaseView(lay.weights_view);
    }
    co_await node.barrier();
  }

  if (pid == 0) {
    co_await node.acquireRview(lay.weights_view);
    co_await node.copyOut(woff, MutByteSpan(reinterpret_cast<std::byte*>(
                                                w.data()),
                                            lay.nw * 8));
    co_await node.releaseRview(lay.weights_view);
    double sum = weightChecksum(w);
    co_await node.acquireView(lay.result_view);
    size_t roff = node.cluster().viewOffset(lay.result_view);
    co_await node.touchWrite(roff, 8);
    std::memcpy(node.mem(roff, 8).data(), &sum, 8);
    co_await node.releaseView(lay.result_view);
  }
  co_await node.barrier();
}

sim::Task<void> nnTraditional(vopp::Node& node, const NnParams& p,
                              const NnLayout& lay) {
  Net net{p.inputs, p.hidden, p.outputs};
  const int P = node.nprocs();
  const int pid = node.id();
  const size_t s_lo = sampleLo(p.samples, P, pid);
  const size_t s_hi = sampleHi(p.samples, P, pid);

  if (pid == 0) {
    std::vector<double> w;
    initWeights(p, net, w);
    co_await node.touchWrite(lay.weights_off, lay.nw * 8);
    std::memcpy(node.mem(lay.weights_off, lay.nw * 8).data(), w.data(),
                lay.nw * 8);
  }
  co_await node.barrier();

  std::vector<double> w(lay.nw), grad(lay.nw);
  std::vector<int64_t> q;
  const size_t my_delta_off =
      lay.deltas_off + static_cast<size_t>(pid) * lay.nw * 8;
  for (int e = 0; e < p.epochs; ++e) {
    // Weights read directly from shared memory (faults on every epoch).
    co_await node.touchRead(lay.weights_off, lay.nw * 8);
    std::memcpy(w.data(), node.memView(lay.weights_off, lay.nw * 8).data(),
                lay.nw * 8);
    gradientSlice(p, net, w, s_lo, s_hi, grad);
    quantize(grad, q);
    node.charge(epochComputeCost(p, net, s_hi - s_lo));

    // Publish my delta row (barrier-only: no locks in the original NN).
    co_await node.touchWrite(my_delta_off, lay.nw * 8);
    std::memcpy(node.mem(my_delta_off, lay.nw * 8).data(), q.data(),
                lay.nw * 8);
    node.chargeOps(lay.nw, 5);
    co_await node.barrier();

    if (pid == 0) {
      std::vector<int64_t> total(lay.nw, 0);
      for (int s = 0; s < P; ++s) {
        size_t off = lay.deltas_off + static_cast<size_t>(s) * lay.nw * 8;
        co_await node.touchRead(off, lay.nw * 8);
        auto* row = reinterpret_cast<const int64_t*>(
            node.memView(off, lay.nw * 8).data());
        for (size_t k = 0; k < lay.nw; ++k) total[k] += row[k];
      }
      applyDeltas(w, total, p.lr);
      node.chargeOps(lay.nw * 2, 5);
      co_await node.touchWrite(lay.weights_off, lay.nw * 8);
      std::memcpy(node.mem(lay.weights_off, lay.nw * 8).data(), w.data(),
                  lay.nw * 8);
    }
    co_await node.barrier();
  }

  if (pid == 0) {
    co_await node.touchRead(lay.weights_off, lay.nw * 8);
    std::memcpy(w.data(), node.memView(lay.weights_off, lay.nw * 8).data(),
                lay.nw * 8);
    double sum = weightChecksum(w);
    co_await node.touchWrite(lay.result_off, 8);
    std::memcpy(node.mem(lay.result_off, 8).data(), &sum, 8);
  }
  co_await node.barrier();
}

double runNnMpi(const harness::RunConfig& config, const NnParams& p,
                harness::RunResult& result) {
  Net net{p.inputs, p.hidden, p.outputs};
  msg::World world(config);
  double checksum = 0;
  world.run([&](msg::Rank& rank) -> sim::Task<void> {
    const size_t s_lo = sampleLo(p.samples, rank.size(), rank.id());
    const size_t s_hi = sampleHi(p.samples, rank.size(), rank.id());
    std::vector<double> w;
    initWeights(p, net, w);
    std::vector<double> grad(net.weightCount());
    std::vector<int64_t> q(net.weightCount());
    for (int e = 0; e < p.epochs; ++e) {
      gradientSlice(p, net, w, s_lo, s_hi, grad);
      std::vector<int64_t> total;
      quantize(grad, total);
      rank.charge(epochComputeCost(p, net, s_hi - s_lo));
      co_await rank.allreduce(total);
      applyDeltas(w, total, p.lr);
      rank.chargeOps(net.weightCount(), 5);
    }
    if (rank.id() == 0) checksum = weightChecksum(w);
    co_await rank.barrier();
  });
  result = world.result();
  return checksum;
}

}  // namespace

NnRun runNn(const harness::RunConfig& config, const NnParams& params,
            NnVariant variant) {
  NnRun out;
  if (variant == NnVariant::kMpi) {
    out.checksum = runNnMpi(config, params, out.result);
    return out;
  }
  VODSM_CHECK_MSG(variant != NnVariant::kTraditional ||
                      config.protocol == dsm::Protocol::kLrcDiff,
                  "traditional NN runs on LRC_d only");
  vopp::Cluster cluster(config);
  NnLayout lay;
  Net net{params.inputs, params.hidden, params.outputs};
  lay.nw = net.weightCount();
  if (variant == NnVariant::kVopp) {
    // Delta views are homed at the master (their consumer): under VC_sd the
    // writers' releases push the gradients straight to node 0, so the
    // gather is local there.
    for (int s = 0; s < config.nprocs; ++s)
      lay.delta_views.push_back(cluster.defineView(lay.nw * 8, 0));
    // The weights view is also master-managed (the master is its writer).
    lay.weights_view = cluster.defineView(lay.nw * 8, 0);
    lay.result_view = cluster.defineView(8, 0);
    lay.result_off = cluster.viewOffset(lay.result_view);
  } else {
    lay.weights_off = cluster.allocShared(lay.nw * 8);
    lay.deltas_off = cluster.allocShared(
        static_cast<size_t>(config.nprocs) * lay.nw * 8);
    lay.result_off = cluster.allocShared(8);
  }
  cluster.run([&](vopp::Node& node) -> sim::Task<void> {
    return variant == NnVariant::kVopp ? nnVopp(node, params, lay)
                                       : nnTraditional(node, params, lay);
  });
  out.result = cluster.result();
  auto raw = cluster.memoryOf(0, lay.result_off, 8);
  std::memcpy(&out.checksum, raw.data(), 8);
  return out;
}

}  // namespace vodsm::apps
