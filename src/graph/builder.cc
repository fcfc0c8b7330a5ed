#include "src/graph/builder.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "src/parallel/primitives.h"
#include "src/parallel/random.h"
#include "src/parallel/thread_pool.h"

namespace connectit {

namespace {

// A bucket owns 2^kBucketBits consecutive sources; it is widened only when
// the vertex range would otherwise need more than kMaxBuckets buckets.
constexpr int kBucketBits = 12;
constexpr size_t kMaxBuckets = size_t{1} << 16;
// The partition splits the edge list into one block per kMinBlockEdges
// edges, at least one and at most kBlocksPerWorker per pool worker.
constexpr size_t kBlocksPerWorker = 4;
constexpr size_t kMinBlockEdges = size_t{1} << 14;

// One partitioned arc. No member initializers, so the partition array can
// be allocated without being written first.
struct Arc {
  NodeId src;
  NodeId dst;
};

}  // namespace

void BuildRows(const EdgeList& edges, NodeId first, NodeId count,
               const BuildOptions& options, std::vector<EdgeId>* offsets,
               std::vector<NodeId>* neighbors) {
  const NodeId n = edges.num_nodes;
  const size_t m = edges.size();
  int shift = kBucketBits;
  while (((size_t{count} + (size_t{1} << shift) - 1) >> shift) > kMaxBuckets) {
    ++shift;
  }
  const size_t width = size_t{1} << shift;
  const size_t num_buckets = (size_t{count} + width - 1) >> shift;
  const size_t num_blocks = std::clamp<size_t>(
      m / kMinBlockEdges, 1, kBlocksPerWorker * NumWorkers());

  // Calls fn(bucket, arc) for every arc block k emits into [first, first +
  // count) and returns the index of the block's first edge with an
  // endpoint >= n (SIZE_MAX if none); such an edge emits nothing.
  auto for_block_arcs = [&](size_t k, auto&& fn) {
    size_t bad = SIZE_MAX;
    const auto arc = [&](NodeId src, NodeId dst) {
      const NodeId local = src - first;  // wraps past count if src < first
      if (local < count) fn(local >> shift, Arc{src, dst});
    };
    for (size_t i = m * k / num_blocks; i < m * (k + 1) / num_blocks; ++i) {
      const Edge e = edges.edges[i];
      if (e.u >= n || e.v >= n) {
        if (bad == SIZE_MAX) bad = i;
        continue;
      }
      if (options.remove_self_loops && e.u == e.v) continue;
      arc(e.u, e.v);
      if (options.symmetrize) arc(e.v, e.u);
    }
    return bad;
  };

  // Partition. Each block counts its arcs per bucket (block-major rows of
  // `cursors`); an exclusive scan in (bucket, block) order turns the counts
  // into each block's own write cursors, so the scatter needs no atomics.
  std::vector<EdgeId> cursors(num_blocks * num_buckets, 0);
  std::vector<size_t> first_bad(num_blocks);
  ParallelFor(
      0, num_blocks,
      [&](size_t k) {
        EdgeId* counts = cursors.data() + k * num_buckets;
        first_bad[k] = for_block_arcs(
            k, [&](size_t bucket, Arc) { ++counts[bucket]; });
      },
      1);
  const size_t bad = *std::min_element(first_bad.begin(), first_bad.end());
  if (bad != SIZE_MAX) {
    const Edge& e = edges.edges[bad];
    throw std::out_of_range("edge " + std::to_string(bad) + " (" +
                            std::to_string(e.u) + ", " + std::to_string(e.v) +
                            ") out of range for " + std::to_string(n) +
                            " nodes");
  }

  std::vector<EdgeId> bucket_start(num_buckets + 1);
  EdgeId total = 0;
  for (size_t b = 0; b < num_buckets; ++b) {
    bucket_start[b] = total;
    for (size_t k = 0; k < num_blocks; ++k) {
      EdgeId& cursor = cursors[k * num_buckets + b];
      const EdgeId arcs = cursor;
      cursor = total;
      total += arcs;
    }
  }
  bucket_start[num_buckets] = total;

  auto partition = std::make_unique_for_overwrite<Arc[]>(total);
  ParallelFor(
      0, num_blocks,
      [&](size_t k) {
        EdgeId* cursor = cursors.data() + k * num_buckets;
        for_block_arcs(k, [&](size_t bucket, Arc a) {
          partition[cursor[bucket]++] = a;
        });
      },
      1);
  cursors = {};

  // Rows, one bucket at a time. offsets[v] first counts v's degree, is
  // scanned into v's raw row start within the bucket, and is advanced past
  // each target placed, ending at v's raw row end. Each row is then sorted,
  // deduplicated and moved down over the arcs removed before it; offsets[v]
  // becomes v's start within the bucket's kept rows.
  offsets->assign(size_t{count} + 1, 0);
  EdgeId* off = offsets->data();
  std::vector<NodeId> rows(total);
  std::vector<EdgeId> kept(num_buckets + 1);
  ParallelFor(
      0, num_buckets,
      [&](size_t b) {
        const size_t lo = b * width;
        const size_t hi = std::min(lo + width, size_t{count});
        const Arc* arcs = partition.get() + bucket_start[b];
        const EdgeId num_arcs = bucket_start[b + 1] - bucket_start[b];
        NodeId* row = rows.data() + bucket_start[b];
        for (EdgeId i = 0; i < num_arcs; ++i) ++off[arcs[i].src - first];
        EdgeId start = 0;
        for (size_t v = lo; v < hi; ++v) {
          const EdgeId degree = off[v];
          off[v] = start;
          start += degree;
        }
        for (EdgeId i = 0; i < num_arcs; ++i) {
          row[off[arcs[i].src - first]++] = arcs[i].dst;
        }
        EdgeId begin = 0;
        EdgeId out = 0;
        for (size_t v = lo; v < hi; ++v) {
          const EdgeId end = off[v];
          std::sort(row + begin, row + end);
          const NodeId* last = options.remove_duplicates
                                   ? std::unique(row + begin, row + end)
                                   : row + end;
          const EdgeId degree = last - (row + begin);
          if (out != begin) {
            std::copy(row + begin, row + begin + degree, row + out);
          }
          off[v] = out;
          out += degree;
          begin = end;
        }
        kept[b] = out;
      },
      1);
  partition.reset();

  // Compact: bucket b's kept rows move to kept[b], the scan of the kept
  // counts. When nothing was removed every bucket is already in place.
  const EdgeId kept_total = ScanExclusive(kept.data(), num_buckets);
  kept[num_buckets] = kept_total;
  off[count] = kept_total;
  const bool in_place = kept_total == total;
  if (in_place) {
    *neighbors = std::move(rows);
  } else {
    neighbors->assign(kept_total, 0);
  }
  ParallelFor(
      0, num_buckets,
      [&](size_t b) {
        const size_t lo = b * width;
        const size_t hi = std::min(lo + width, size_t{count});
        for (size_t v = lo; v < hi; ++v) off[v] += kept[b];
        if (in_place) return;
        const NodeId* row = rows.data() + bucket_start[b];
        std::copy(row, row + (kept[b + 1] - kept[b]),
                  neighbors->data() + kept[b]);
      },
      1);
}

Graph BuildGraph(const EdgeList& edges, const BuildOptions& options) {
  std::vector<EdgeId> offsets;
  std::vector<NodeId> neighbors;
  BuildRows(edges, 0, edges.num_nodes, options, &offsets, &neighbors);
  return Graph(std::move(offsets), std::move(neighbors));
}

Graph BuildGraph(NodeId num_nodes, std::vector<Edge> edges,
                 const BuildOptions& options) {
  EdgeList list;
  list.num_nodes = num_nodes;
  list.edges = std::move(edges);
  return BuildGraph(list, options);
}

EdgeList ExtractEdges(const Graph& graph) {
  EdgeList out;
  out.num_nodes = graph.num_nodes();
  const NodeId n = graph.num_nodes();
  // Count per-vertex forward arcs (v > u), prefix sum, then fill.
  std::vector<EdgeId> counts(static_cast<size_t>(n) + 1, 0);
  ParallelFor(0, n, [&](size_t ui) {
    const NodeId u = static_cast<NodeId>(ui);
    EdgeId c = 0;
    for (NodeId v : graph.neighbors(u)) c += (v > u) ? 1 : 0;
    counts[ui] = c;
  });
  const EdgeId total = ScanExclusive(counts.data(), n);
  out.edges.resize(total);
  ParallelFor(0, n, [&](size_t ui) {
    const NodeId u = static_cast<NodeId>(ui);
    EdgeId pos = counts[ui];
    for (NodeId v : graph.neighbors(u)) {
      if (v > u) out.edges[pos++] = {u, v};
    }
  });
  return out;
}

Graph RelabelGraph(const Graph& graph, const std::vector<NodeId>& perm) {
  const NodeId n = graph.num_nodes();
  assert(perm.size() == n);
  EdgeList edges = ExtractEdges(graph);
  ParallelFor(0, edges.size(), [&](size_t i) {
    Edge& e = edges.edges[i];
    e = {perm[e.u], perm[e.v]};
  });
  return BuildGraph(edges);
}

std::vector<NodeId> RandomPermutation(NodeId n, uint64_t seed) {
  std::vector<NodeId> perm(n);
  for (NodeId i = 0; i < n; ++i) perm[i] = i;
  Rng rng(seed);
  // Fisher-Yates (sequential; permutation generation is not on hot paths).
  for (NodeId i = n; i > 1; --i) {
    const NodeId j = static_cast<NodeId>(rng.GetBounded(i, i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace connectit
