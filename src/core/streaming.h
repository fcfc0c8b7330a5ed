// Streaming (parallel batch-incremental) connectivity (paper §3.5,
// Algorithm 3).
//
// Three algorithm types, matching the paper's classification:
//   Type (i)  — union-find variants without SpliceAtomic: a batch's updates
//               and queries run fully concurrently (linearizable,
//               wait-free finds).
//   Type (ii) — Shiloach-Vishkin and root-based Liu-Tarjan: updates are
//               processed synchronously (rounds over the batch), queries
//               are wait-free finds.
//   Type (iii)— Rem's algorithms with SpliceAtomic: phase-concurrent; the
//               batch is split into an update phase and a query phase.
//
// Every structure can be born empty (the NodeId constructor — identity
// labeling) or *seeded* with the labeling of a completed static pass (the
// vector<NodeId> constructor), which is how a bulk CSR/compressed/COO run
// hands off to batch-incremental updates. Seeds are validated and
// normalized by AdoptSeedLabels; the registry's make_streaming(StreamingSeed)
// factory (registry.h) builds the seed labeling by running the variant's own
// static finish on a GraphHandle.
//
// These are the paper's algorithms, tested and benchmarked as such; the
// Connectivity façade (connectivity_index.h) does not run them. Its Insert
// merges components in the published snapshot directly and answers a
// batch's queries after all of its updates, which every type above allows.

#ifndef CONNECTIT_CORE_STREAMING_H_
#define CONNECTIT_CORE_STREAMING_H_

#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/core/connectit.h"
#include "src/graph/types.h"
#include "src/liutarjan/liu_tarjan.h"
#include "src/parallel/atomics.h"
#include "src/parallel/primitives.h"
#include "src/parallel/thread_pool.h"
#include "src/sv/shiloach_vishkin.h"
#include "src/unionfind/dsu.h"

namespace connectit {

// Validates that `parents` is a rooted forest over [0, parents.size()) and
// normalizes it to the form every streaming structure can adopt as its
// starting state: depth <= 1, each tree rooted at its minimum member. The
// normalization preserves the partition and is required, not cosmetic —
// Rem's unite rules link strictly from larger parent values to smaller, so
// an adopted labeling must satisfy parents[v] <= v (the same invariant the
// sampling phase guarantees, see sampling.h).
//
// Throws std::invalid_argument on an out-of-range parent or a cycle.
inline std::vector<NodeId> AdoptSeedLabels(std::vector<NodeId> parents) {
  const NodeId n = static_cast<NodeId>(parents.size());
  if (n == 0) return parents;
  std::atomic<bool> in_range{true};
  ParallelFor(0, n, [&](size_t v) {
    if (parents[v] >= n) in_range.store(false, std::memory_order_relaxed);
  });
  if (!in_range.load(std::memory_order_relaxed)) {
    throw std::invalid_argument("streaming seed: parent id out of range");
  }
  // Pointer doubling: on a rooted forest every vertex reaches its root
  // within ceil(log2(depth)) rounds. Odd-length cycles never converge (the
  // round bound catches them); even-length cycles collapse to spurious
  // self-loops, so converged parents are additionally required to have been
  // roots in the *original* array.
  std::vector<uint8_t> was_root(n);
  ParallelFor(0, n, [&](size_t v) {
    was_root[v] = (parents[v] == static_cast<NodeId>(v)) ? 1 : 0;
  });
  std::vector<NodeId> next(n);
  // After round k every pointer spans 2^k original hops, so 8*sizeof(NodeId)
  // rounds cover any forest depth; one extra non-converging round is a cycle.
  const int max_rounds = 8 * static_cast<int>(sizeof(NodeId)) + 1;
  for (int round = 0;; ++round) {
    std::atomic<bool> changed{false};
    ParallelFor(0, n, [&](size_t v) {
      next[v] = parents[parents[v]];
      if (next[v] != parents[v]) changed.store(true, std::memory_order_relaxed);
    });
    parents.swap(next);
    if (!changed.load(std::memory_order_relaxed)) break;
    if (round >= max_rounds) {
      throw std::invalid_argument("streaming seed: parent array has a cycle");
    }
  }
  std::atomic<bool> forest{true};
  ParallelFor(0, n, [&](size_t v) {
    if (!was_root[parents[v]]) forest.store(false, std::memory_order_relaxed);
  });
  if (!forest.load(std::memory_order_relaxed)) {
    throw std::invalid_argument("streaming seed: parent array has a cycle");
  }
  // Re-root every tree at its minimum member (cluster-min labeling).
  const std::vector<NodeId> min_of = MinIndexPerLabel(parents);
  ParallelFor(0, n, [&](size_t v) { parents[v] = min_of[parents[v]]; });
  return parents;
}

// One streaming connectivity structure over vertices [0, n). Thread-safe
// only through ProcessBatch (batches are applied one after another).
class StreamingConnectivity {
 public:
  virtual ~StreamingConnectivity() = default;

  // Applies `updates` (edge insertions) and answers `queries` (pairs);
  // returns one result per query: 1 if the endpoints are connected.
  virtual std::vector<uint8_t> ProcessBatch(
      const std::vector<Edge>& updates, const std::vector<Edge>& queries) = 0;

  // Snapshot of the current connectivity labeling (fully compressed copy).
  virtual std::vector<NodeId> Labels() const = 0;

  virtual NodeId num_nodes() const = 0;
};

template <UniteOption kUnite, FindOption kFind,
          SpliceOption kSplice = SpliceOption::kNone,
          PlacementOption kPlace = PlacementOption::kFlat>
class UnionFindStreaming final : public StreamingConnectivity {
 public:
  // Phase-concurrent variants (Rem + SpliceAtomic) must separate updates
  // from queries (Type (iii)); all others interleave them (Type (i)).
  static constexpr bool kPhaseConcurrent = (kSplice == SpliceOption::kSplice);

  // Cold start: the identity-seeded special case (every vertex alone).
  // Skips AdoptSeedLabels — the identity is already normalized, and this
  // constructor sits inside bench timing loops.
  explicit UnionFindStreaming(NodeId n)
      : labels_(IdentityLabels(n)), dsu_(labels_.data(), n) {}

  // Warm start: adopts a static pass's labeling (any rooted forest; see
  // AdoptSeedLabels) so batch updates continue from that state.
  explicit UnionFindStreaming(std::vector<NodeId> seed)
      : labels_(AdoptSeedLabels(std::move(seed))),
        dsu_(labels_.data(), static_cast<NodeId>(labels_.size())) {}

  std::vector<uint8_t> ProcessBatch(
      const std::vector<Edge>& updates,
      const std::vector<Edge>& queries) override {
    std::vector<uint8_t> results(queries.size());
    if constexpr (kPhaseConcurrent) {
      ParallelFor(0, updates.size(), [&](size_t i) {
        dsu_.Unite(updates[i].u, updates[i].v);
      });
      ParallelFor(0, queries.size(), [&](size_t i) {
        results[i] = dsu_.SameSet(queries[i].u, queries[i].v) ? 1 : 0;
      });
    } else {
      // Fully concurrent mix of unions and finds within the batch.
      const size_t total = updates.size() + queries.size();
      ParallelFor(0, total, [&](size_t i) {
        if (i < updates.size()) {
          dsu_.Unite(updates[i].u, updates[i].v);
        } else {
          const size_t q = i - updates.size();
          results[q] = dsu_.SameSet(queries[q].u, queries[q].v) ? 1 : 0;
        }
      });
    }
    return results;
  }

  std::vector<NodeId> Labels() const override {
    // Compress the live forest in place (blocked path-halving in
    // FullyCompressParents) before copying: per-batch snapshot publication
    // stops re-walking chains an earlier publication already resolved.
    // Safe between batches, and redirecting a vertex to its root preserves
    // every unite rule's invariant (min-based: root <= v; JTB: its own
    // finds perform the same redirect).
    FullyCompressParents(labels_.data(), static_cast<NodeId>(labels_.size()));
    return labels_;
  }

  NodeId num_nodes() const override {
    return static_cast<NodeId>(labels_.size());
  }

 private:
  // mutable: Labels() compacts the forest in place, which changes the
  // representation but never the partition (logically const).
  mutable std::vector<NodeId> labels_;
  DsuFor<kUnite, kFind, kSplice, kPlace> dsu_;
};

// Wait-free find over a min-rooted parent forest (used by Type (ii)).
inline bool SameSetByWalk(const std::vector<NodeId>& parents, NodeId u,
                          NodeId v) {
  while (true) {
    NodeId ru = u;
    while (true) {
      const NodeId p = AtomicLoad(&parents[ru]);
      if (p == ru) break;
      ru = p;
    }
    NodeId rv = v;
    while (true) {
      const NodeId p = AtomicLoad(&parents[rv]);
      if (p == rv) break;
      rv = p;
    }
    if (ru == rv) return true;
    if (AtomicLoad(&parents[ru]) == ru) return false;
  }
}

class ShiloachVishkinStreaming final : public StreamingConnectivity {
 public:
  // Cold start: the identity-seeded special case.
  explicit ShiloachVishkinStreaming(NodeId n) : labels_(IdentityLabels(n)) {}

  // Warm start from a static pass's labeling (see AdoptSeedLabels).
  explicit ShiloachVishkinStreaming(std::vector<NodeId> seed)
      : labels_(AdoptSeedLabels(std::move(seed))) {}

  std::vector<uint8_t> ProcessBatch(
      const std::vector<Edge>& updates,
      const std::vector<Edge>& queries) override {
    if (!updates.empty()) ShiloachVishkin::RunOnEdges(updates, labels_);
    std::vector<uint8_t> results(queries.size());
    ParallelFor(0, queries.size(), [&](size_t i) {
      results[i] = SameSetByWalk(labels_, queries[i].u, queries[i].v) ? 1 : 0;
    });
    return results;
  }

  std::vector<NodeId> Labels() const override {
    // In-place compression before the copy; see UnionFindStreaming::Labels.
    FullyCompressParents(labels_.data(), static_cast<NodeId>(labels_.size()));
    return labels_;
  }

  NodeId num_nodes() const override {
    return static_cast<NodeId>(labels_.size());
  }

 private:
  mutable std::vector<NodeId> labels_;
};

// Root-based Liu-Tarjan variants in the streaming setting (Type (ii)).
template <LtConnect kConnect, LtShortcut kShortcut, LtAlter kAlter>
class LiuTarjanStreaming final : public StreamingConnectivity {
 public:
  // Cold start: the identity-seeded special case.
  explicit LiuTarjanStreaming(NodeId n) : labels_(IdentityLabels(n)) {}

  // Warm start from a static pass's labeling (see AdoptSeedLabels).
  explicit LiuTarjanStreaming(std::vector<NodeId> seed)
      : labels_(AdoptSeedLabels(std::move(seed))) {}

  std::vector<uint8_t> ProcessBatch(
      const std::vector<Edge>& updates,
      const std::vector<Edge>& queries) override {
    if (!updates.empty()) {
      // Pre-contract endpoints to their current roots so that RootUp
      // offers can take effect immediately (the forest may have depth > 1
      // across batches).
      std::vector<Edge> edges(updates.size());
      ParallelFor(0, updates.size(), [&](size_t i) {
        // Wait-free root walks (same discipline as SameSetByWalk): the
        // parallel walks race only with each other, and parents only ever
        // move toward roots, so acquire loads suffice.
        NodeId ru = updates[i].u;
        for (NodeId p = AtomicLoad(&labels_[ru]); p != ru;
             p = AtomicLoad(&labels_[ru])) {
          ru = p;
        }
        NodeId rv = updates[i].v;
        for (NodeId p = AtomicLoad(&labels_[rv]); p != rv;
             p = AtomicLoad(&labels_[rv])) {
          rv = p;
        }
        edges[i] = {ru, rv};
      });
      LiuTarjan<kConnect, LtUpdate::kRootUp, kShortcut, kAlter> lt;
      lt.Run(edges, labels_);
    }
    std::vector<uint8_t> results(queries.size());
    ParallelFor(0, queries.size(), [&](size_t i) {
      results[i] = SameSetByWalk(labels_, queries[i].u, queries[i].v) ? 1 : 0;
    });
    return results;
  }

  std::vector<NodeId> Labels() const override {
    // In-place compression before the copy; see UnionFindStreaming::Labels.
    FullyCompressParents(labels_.data(), static_cast<NodeId>(labels_.size()));
    return labels_;
  }

  NodeId num_nodes() const override {
    return static_cast<NodeId>(labels_.size());
  }

 private:
  mutable std::vector<NodeId> labels_;
};

}  // namespace connectit

#endif  // CONNECTIT_CORE_STREAMING_H_
