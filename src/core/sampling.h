// Sampling phase implementations (paper §3.2, Algorithms 4-6).
//
// Every scheme emits a partial connectivity labeling satisfying Definition
// 3.1, normalized so that each sampled cluster is labeled by its minimum
// member. The normalization gives two extra properties the finish phase
// relies on: the labeling is a depth-<=1 rooted forest, and parent values
// never exceed vertex ids (required by Rem's value-ordered linking).
//
// k-out sampling runs as at most two blocked passes: the deterministic
// first pick, a compression, then every remaining pick, each pass gathering
// 64 picks per worker and prefetching their parents before uniting them, so
// cache misses overlap and the later finds are one hop. ID-ordered linking
// makes every label its cluster's minimum whatever order the unites run in,
// so the labels match a sequential union of the documented picks exactly.
//
// The *Forest variants additionally emit partial spanning-forest edges in
// the per-vertex slot array (Definition B.2): slot[v] holds the unique
// forest edge assigned to v, or (kInvalidNode, kInvalidNode).
//
// All schemes are generic over any adjacency representation (plain CSR or
// byte-compressed CSR); the named non-template entry points operate on
// Graph. Sampling inherently needs adjacency (k-out reads degrees and
// NeighborAt; BFS/LDD traverse), so it is never COO-native: sampled runs
// on a COO GraphHandle go through the handle's cached CSR materialization
// (see registry.cc and ARCHITECTURE.md).

#ifndef CONNECTIT_CORE_SAMPLING_H_
#define CONNECTIT_CORE_SAMPLING_H_

#include <algorithm>
#include <vector>

#include "src/algo/bfs.h"
#include "src/algo/ldd.h"
#include "src/core/options.h"
#include "src/graph/csr.h"
#include "src/graph/types.h"
#include "src/parallel/primitives.h"
#include "src/parallel/random.h"
#include "src/unionfind/dsu.h"

namespace connectit {

inline constexpr Edge kEmptySlot{kInvalidNode, kInvalidNode};

namespace internal_sampling {

// The internal union-find used to contract sampled edges (paper: "we then
// use any of our 144 union-find variants on these edges"; we fix the robust
// Union-Async + FindHalve combination).
using SampleDsu = Dsu<UniteOption::kAsync, FindOption::kHalve>;

template <bool kForest>
inline void ApplySampledEdge(SampleDsu& dsu, NodeId u, NodeId v,
                             std::vector<Edge>* slots) {
  const NodeId hooked = dsu.Unite(u, v);
  if constexpr (kForest) {
    if (hooked != kInvalidNode) (*slots)[hooked] = {u, v};
  }
}

// Reassigns forest-edge slots after re-rooting a sampled tree at `m`.
// `tree_parents` is the BFS/LDD parent array (parents[root] == root); slots
// currently assign each non-root v its edge {parents[v], v}. After the
// call, slots along the path m -> old root are flipped so that m owns no
// edge (m becomes the labeling root the finish phase may hook).
inline void ReRootSlots(const std::vector<NodeId>& tree_parents, NodeId m,
                        std::vector<Edge>& slots) {
  NodeId cur = m;
  NodeId pa = tree_parents[cur];
  while (pa != cur) {
    const NodeId next_pa = tree_parents[pa];
    slots[pa] = {cur, pa};
    cur = pa;
    pa = next_pa;
  }
  slots[m] = kEmptySlot;
}

// The j-th sampled neighbor of u, where deg = degree(u) > 0. Pick 0 is
// deterministic for every variant but kPure: neighbor 0 (kAfforest,
// kHybrid) or the first neighbor of highest degree (kMaxDegree).
// Afforest's pick j is neighbor j; every other pick is a uniformly random
// neighbor, drawn from the stateless stream at index u*k + j.
template <typename GraphT>
NodeId KOutPick(const GraphT& graph, const KOutOptions& options,
                const Rng& rng, NodeId u, EdgeId deg, uint32_t j,
                uint32_t k) {
  switch (options.variant) {
    case KOutVariant::kAfforest:
      return graph.NeighborAt(u, j);
    case KOutVariant::kHybrid:
      if (j == 0) return graph.NeighborAt(u, 0);
      break;
    case KOutVariant::kMaxDegree:
      if (j == 0) {
        NodeId best = kInvalidNode;
        EdgeId best_deg = 0;
        graph.MapNeighbors(u, [&](NodeId v) {
          const EdgeId d = graph.degree(v);
          if (best == kInvalidNode || d > best_deg) {
            best_deg = d;
            best = v;
          }
        });
        return best;
      }
      break;
    case KOutVariant::kPure:
      break;
  }
  return graph.NeighborAt(
      u, rng.GetBounded(static_cast<uint64_t>(u) * k + j, deg));
}

// Picks one worker gathers before uniting any of them.
inline constexpr size_t kPickBatch = 64;
// Vertices per scheduled chunk of a pass. Two workers' unites meet at chunk
// boundaries; with 1024-vertex chunks, pure picks on a 512x512 grid ran
// ~10% slower than the single-pass loop did.
inline constexpr size_t kPassGrain = 4096;

// Unites picks [first, last) of every vertex in one parallel pass. A worker
// gathers up to kPickBatch picks with no atomic in between, prefetches the
// picked neighbors' parents, and only then unites them: a unite's CAS is a
// full fence, so uniting as it goes would stop the next vertex's cache
// misses from overlapping the current one's.
template <bool kForest, typename GraphT>
void KOutPass(const GraphT& graph, const KOutOptions& options, uint32_t k,
              uint32_t first, uint32_t last, SampleDsu& dsu,
              std::vector<Edge>* slots) {
  const Rng rng(options.seed);
  const bool afforest = options.variant == KOutVariant::kAfforest;
  NodeId* parents = dsu.parents();
  ParallelForBlocked(
      0, graph.num_nodes(),
      [&](size_t lo, size_t hi) {
        Edge batch[kPickBatch];
        size_t size = 0;
        const auto unite_batch = [&] {
          for (size_t i = 0; i < size; ++i) {
            __builtin_prefetch(&parents[batch[i].v]);
          }
          for (size_t i = 0; i < size; ++i) {
            const auto [u, v] = batch[i];
            // Equal parents mean one tree already (trees only merge). After
            // a compression this is every pick inside a cluster, so most
            // picks skip the unite's finds.
            if (AtomicLoadRelaxed(&parents[u]) ==
                AtomicLoadRelaxed(&parents[v])) {
              continue;
            }
            ApplySampledEdge<kForest>(dsu, u, v, slots);
          }
          size = 0;
        };
        for (size_t ui = lo; ui < hi; ++ui) {
          const NodeId u = static_cast<NodeId>(ui);
          const EdgeId deg = graph.degree(u);
          // Afforest takes at most deg picks, the other variants k.
          const EdgeId end =
              deg == 0 ? 0 : (afforest ? std::min<EdgeId>(last, deg) : last);
          for (uint32_t j = first; j < end; ++j) {
            batch[size++] = {u, KOutPick(graph, options, rng, u, deg, j, k)};
            if (size == kPickBatch) unite_batch();
          }
        }
        unite_batch();
      },
      kPassGrain);
}

// Pass 1 unites the deterministic first pick and compresses, so on skewed
// graphs the giant cluster forms there and pass 2's finds are one hop;
// pass 2 unites every remaining pick (see the header comment).
template <bool kForest, typename GraphT>
void KOutSampleImpl(const GraphT& graph, const KOutOptions& options,
                    std::vector<NodeId>& labels, std::vector<Edge>* slots) {
  const NodeId n = graph.num_nodes();
  if (n == 0) return;
  SampleDsu dsu(labels.data(), n);
  const uint32_t k = std::max<uint32_t>(1, options.k);
  uint32_t first = 0;
  if (options.variant != KOutVariant::kPure) {
    KOutPass<kForest>(graph, options, k, 0, 1, dsu, slots);
    FullyCompressParents(labels.data(), n);
    first = 1;
  }
  if (first < k) {
    KOutPass<kForest>(graph, options, k, first, k, dsu, slots);
    // Full path compression: with ID-ordered linking the root of each tree
    // is its minimum member, so compression also normalizes to cluster-min.
    FullyCompressParents(labels.data(), n);
  }
}

template <bool kForest, typename GraphT>
void BfsSampleImpl(const GraphT& graph, const BfsSampleOptions& options,
                   std::vector<NodeId>& labels, std::vector<Edge>* slots) {
  const NodeId n = graph.num_nodes();
  if (n == 0) return;
  Rng rng(options.seed);
  for (uint32_t attempt = 0; attempt < options.max_tries; ++attempt) {
    const NodeId src = static_cast<NodeId>(rng.GetBounded(attempt, n));
    BfsResult bfs = Bfs(graph, src);
    if (static_cast<double>(bfs.num_reached) <
        options.coverage_threshold * static_cast<double>(n)) {
      continue;
    }
    // Label the discovered component by its minimum member so the labeling
    // forest is value-monotone (see header comment).
    const NodeId m = static_cast<NodeId>(ParallelReduce<NodeId>(
        0, n, kInvalidNode,
        [&](size_t v) {
          return bfs.parents[v] != kInvalidNode ? static_cast<NodeId>(v)
                                                : kInvalidNode;
        },
        [](NodeId a, NodeId b) { return std::min(a, b); }));
    ParallelFor(0, n, [&](size_t v) {
      if (bfs.parents[v] != kInvalidNode) labels[v] = m;
    });
    if constexpr (kForest) {
      ParallelFor(0, n, [&](size_t vi) {
        const NodeId v = static_cast<NodeId>(vi);
        if (bfs.parents[v] != kInvalidNode && bfs.parents[v] != v) {
          (*slots)[v] = {bfs.parents[v], v};
        }
      });
      if (m != src) ReRootSlots(bfs.parents, m, *slots);
    }
    return;
  }
  // All attempts failed: leave the identity labeling (the finish phase then
  // runs unsampled).
}

template <bool kForest, typename GraphT>
void LddSampleImpl(const GraphT& graph, const LddSampleOptions& options,
                   std::vector<NodeId>& labels, std::vector<Edge>* slots) {
  const NodeId n = graph.num_nodes();
  if (n == 0) return;
  LddOptions ldd_options;
  ldd_options.beta = options.beta;
  ldd_options.permute = options.permute;
  ldd_options.seed = options.seed;
  const LddResult ldd = LowDiameterDecomposition(graph, ldd_options);
  // Per-cluster minimum member.
  const std::vector<NodeId> min_of = MinIndexPerLabel(ldd.clusters);
  ParallelFor(0, n, [&](size_t vi) {
    const NodeId v = static_cast<NodeId>(vi);
    labels[v] = min_of[ldd.clusters[v]];
  });
  if constexpr (kForest) {
    ParallelFor(0, n, [&](size_t vi) {
      const NodeId v = static_cast<NodeId>(vi);
      if (ldd.parents[v] != v && ldd.parents[v] != kInvalidNode) {
        (*slots)[v] = {ldd.parents[v], v};
      }
    });
    // Re-root every cluster whose minimum member is not its center. The
    // per-cluster paths are vertex-disjoint, so this parallelizes cleanly.
    ParallelFor(0, n, [&](size_t ci) {
      const NodeId c = static_cast<NodeId>(ci);
      if (ldd.clusters[c] != c) return;  // not a center
      const NodeId m = min_of[c];
      if (m != c) ReRootSlots(ldd.parents, m, *slots);
    });
  }
}

}  // namespace internal_sampling

// ---- generic (any graph representation) entry points ----

template <typename GraphT>
void KOutSampleT(const GraphT& graph, const KOutOptions& options,
                 std::vector<NodeId>& labels) {
  internal_sampling::KOutSampleImpl<false>(graph, options, labels, nullptr);
}

template <typename GraphT>
void BfsSampleT(const GraphT& graph, const BfsSampleOptions& options,
                std::vector<NodeId>& labels) {
  internal_sampling::BfsSampleImpl<false>(graph, options, labels, nullptr);
}

template <typename GraphT>
void LddSampleT(const GraphT& graph, const LddSampleOptions& options,
                std::vector<NodeId>& labels) {
  internal_sampling::LddSampleImpl<false>(graph, options, labels, nullptr);
}

// Dispatch on SamplingConfig. No-op for SamplingOption::kNone.
template <typename GraphT>
void RunSamplingT(const GraphT& graph, const SamplingConfig& config,
                  std::vector<NodeId>& labels) {
  switch (config.option) {
    case SamplingOption::kNone: return;
    case SamplingOption::kKOut: KOutSampleT(graph, config.kout, labels); return;
    case SamplingOption::kBfs: BfsSampleT(graph, config.bfs, labels); return;
    case SamplingOption::kLdd: LddSampleT(graph, config.ldd, labels); return;
  }
}

template <typename GraphT>
void RunSamplingForestT(const GraphT& graph, const SamplingConfig& config,
                        std::vector<NodeId>& labels,
                        std::vector<Edge>& slots) {
  switch (config.option) {
    case SamplingOption::kNone:
      return;
    case SamplingOption::kKOut:
      internal_sampling::KOutSampleImpl<true>(graph, config.kout, labels,
                                              &slots);
      return;
    case SamplingOption::kBfs:
      internal_sampling::BfsSampleImpl<true>(graph, config.bfs, labels,
                                             &slots);
      return;
    case SamplingOption::kLdd:
      internal_sampling::LddSampleImpl<true>(graph, config.ldd, labels,
                                             &slots);
      return;
  }
}

// ---- plain-CSR convenience wrappers (implemented in sampling.cc) ----

void KOutSample(const Graph& graph, const KOutOptions& options,
                std::vector<NodeId>& labels);
void KOutSampleForest(const Graph& graph, const KOutOptions& options,
                      std::vector<NodeId>& labels, std::vector<Edge>& slots);
void BfsSample(const Graph& graph, const BfsSampleOptions& options,
               std::vector<NodeId>& labels);
void BfsSampleForest(const Graph& graph, const BfsSampleOptions& options,
                     std::vector<NodeId>& labels, std::vector<Edge>& slots);
void LddSample(const Graph& graph, const LddSampleOptions& options,
               std::vector<NodeId>& labels);
void LddSampleForest(const Graph& graph, const LddSampleOptions& options,
                     std::vector<NodeId>& labels, std::vector<Edge>& slots);
void RunSampling(const Graph& graph, const SamplingConfig& config,
                 std::vector<NodeId>& labels);
void RunSamplingForest(const Graph& graph, const SamplingConfig& config,
                       std::vector<NodeId>& labels, std::vector<Edge>& slots);

// Quality metrics for the sampling-analysis experiments (paper Tables 6-7,
// Figures 19-24).
struct SamplingQuality {
  // Fraction of vertices in the most frequent sampled cluster.
  double coverage = 0.0;
  // Fraction of graph edges whose endpoints lie in different clusters.
  double intercomponent_fraction = 0.0;
  NodeId num_clusters = 0;
};

SamplingQuality MeasureSamplingQuality(const Graph& graph,
                                       const std::vector<NodeId>& labels);

}  // namespace connectit

#endif  // CONNECTIT_CORE_SAMPLING_H_
