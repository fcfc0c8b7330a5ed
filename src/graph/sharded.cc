#include "src/graph/sharded.h"

#include <algorithm>

#include "src/graph/builder.h"

namespace connectit {

ShardedGraph ShardedGraph::Partition(const Graph& graph, size_t num_shards) {
  if (num_shards == 0) num_shards = std::max<size_t>(1, NumWorkers());
  const NodeId n = graph.num_nodes();

  ShardedGraph sharded;
  sharded.num_nodes_ = n;
  sharded.num_arcs_ = graph.num_arcs();
  // Equal vertex ranges: chunk * num_shards >= n, so ShardOf(v) < num_shards
  // for every valid v. chunk >= 1 keeps the division well-defined for empty
  // graphs.
  sharded.chunk_ = static_cast<NodeId>(
      std::max<size_t>(1, (static_cast<size_t>(n) + num_shards - 1) /
                              num_shards));
  sharded.placement_nodes_ = NumaTopology::Get().num_nodes();
  sharded.shards_.resize(num_shards);

  const std::vector<EdgeId>& offsets = graph.offsets();
  const std::vector<NodeId>& neighbors = graph.neighbor_array();
  // Node-affine fill: shard si is allocated and written by a worker bound
  // to node NodeOfShard(si), so under the kernel's first-touch policy the
  // shard's pages land on the node whose workers sweep it later.
  ParallelForNodeAffine(num_shards, [&](size_t si) {
    Shard& s = sharded.shards_[si];
    const size_t chunk = sharded.chunk_;
    s.first = static_cast<NodeId>(std::min<size_t>(si * chunk, n));
    const NodeId last = static_cast<NodeId>(
        std::min<size_t>((si + 1) * chunk, n));
    const NodeId count = last - s.first;
    s.offsets.resize(static_cast<size_t>(count) + 1);
    if (count == 0) {
      // Trailing empty shard (P > n): a zero-vertex, zero-arc range.
      s.offsets[0] = 0;
      return;
    }
    const EdgeId base = offsets[s.first];
    for (NodeId i = 0; i <= count; ++i) {
      s.offsets[i] = offsets[s.first + i] - base;
    }
    s.neighbors.assign(neighbors.begin() + base,
                       neighbors.begin() + offsets[last]);
  });
  return sharded;
}

ShardedGraph::Shard ShardedGraph::BuildShard(const EdgeList& edges,
                                             NodeId first, NodeId count) {
  Shard shard;
  shard.first = first;
  BuildRows(edges, first, count, BuildOptions{}, &shard.offsets,
            &shard.neighbors);
  return shard;
}

Graph ShardedGraph::Flatten() const {
  std::vector<EdgeId> offsets(static_cast<size_t>(num_nodes_) + 1, 0);
  std::vector<NodeId> neighbors(num_arcs_);
  // Per-shard arc base: exclusive prefix sum over shard arc counts.
  std::vector<EdgeId> bases(shards_.size() + 1, 0);
  for (size_t si = 0; si < shards_.size(); ++si) {
    bases[si + 1] = bases[si] + shards_[si].arcs();
  }
  ParallelFor(
      0, shards_.size(),
      [&](size_t si) {
        const Shard& s = shards_[si];
        const NodeId count = s.count();
        for (NodeId i = 0; i < count; ++i) {
          offsets[s.first + i] = bases[si] + s.offsets[i];
        }
        std::copy(s.neighbors.begin(), s.neighbors.end(),
                  neighbors.begin() + bases[si]);
      },
      /*grain=*/1);
  offsets[num_nodes_] = num_arcs_;
  return Graph(std::move(offsets), std::move(neighbors));
}

}  // namespace connectit
