// Sharded CSR (paper §2 "Data Format", partitioned for locality).
//
// A ShardedGraph is a plain CSR cut into P vertex-contiguous shards, each
// owning its own offset and neighbor arrays. The motivation is the same
// locality instinct that drives NUMA-partitioned graph systems: a shard's
// adjacency data lives in one allocation, so a worker traversing shard s
// touches one contiguous region instead of striding through a single
// m-sized array, and shard-major scheduling (MapArcs/MapArcsIf parallelize
// over shards, one shard per task) keeps a worker on one region for the
// whole pass. On a NUMA machine each shard's allocation can be bound to the
// socket that processes it; on a single socket the win is cache- and
// TLB-level.
//
// ShardedGraph serves the full adjacency surface (num_nodes / num_arcs /
// degree / MapNeighbors / MapNeighborsWhile / MapArcs / MapArcsIf /
// NeighborAt — the concept defined in csr.h and documented in
// ARCHITECTURE.md), so every sampling scheme (§3.2) and every finish method
// (§3.3, §B.2) of the framework runs on it natively, with no flat-CSR
// materialization. The handle-level lazy Flatten fallback
// (GraphHandle::MaterializedCsr + ShardedCsrMaterializations) exists only
// for consumers outside the framework that genuinely need one flat CSR.
//
// Shards are vertex-contiguous with equal vertex ranges: shard s owns
// [s * chunk, min((s+1) * chunk, n)) with chunk = ceil(n / P). That makes
// vertex -> shard lookup a single division (degree and NeighborAt stay
// O(1), which the k-out sampler's inner loop needs), at the cost of edge
// imbalance on skewed graphs — see "Choosing a representation" in
// ARCHITECTURE.md for the trade-off discussion. P defaults to the thread
// pool's worker count and is overridable per partition call.

#ifndef CONNECTIT_GRAPH_SHARDED_H_
#define CONNECTIT_GRAPH_SHARDED_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/graph/coo.h"
#include "src/graph/csr.h"
#include "src/graph/types.h"
#include "src/parallel/numa.h"
#include "src/parallel/thread_pool.h"

namespace connectit {

class ShardedGraph {
 public:
  // One vertex-contiguous partition: local CSR arrays for the vertices
  // [first, first + count()).
  struct Shard {
    NodeId first = 0;
    std::vector<EdgeId> offsets;    // size count() + 1; offsets[0] == 0
    std::vector<NodeId> neighbors;  // size offsets.back()

    NodeId count() const {
      return offsets.empty() ? 0 : static_cast<NodeId>(offsets.size() - 1);
    }
    EdgeId arcs() const { return offsets.empty() ? 0 : offsets.back(); }
  };

  ShardedGraph() = default;

  // Cuts `graph` into `num_shards` vertex-contiguous shards. num_shards ==
  // 0 selects the thread pool's worker count. Shards beyond the vertex
  // count are retained but empty (their vertex range is [n, n)), so the
  // requested shard count is always honored — P=1, P=n, and P>n are all
  // valid partitions of the same graph.
  static ShardedGraph Partition(const Graph& graph, size_t num_shards = 0);

  // Builds the CSR shard for the vertex range [first, first + count)
  // directly from an edge list, without ever materializing the full graph.
  // It is BuildGraph's own row builder (BuildRows in builder.h, default
  // BuildOptions) restricted to sources in the range, so feeding the shards
  // of a tiling of [0, n) to a ContainerWriter produces a container
  // byte-identical to writing Partition(BuildGraph(edges), P). Peak memory
  // is the edge list plus this one shard's transient arrays — the
  // out-of-core convert path in graph_tool builds billion-edge containers
  // this way. Throws std::out_of_range, as BuildGraph does, if any edge
  // (in the range or not) has an endpoint >= edges.num_nodes.
  static Shard BuildShard(const EdgeList& edges, NodeId first, NodeId count);

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_arcs() const { return num_arcs_; }
  EdgeId num_edges() const { return num_arcs_ / 2; }
  size_t num_shards() const { return shards_.size(); }
  // Vertices per shard (the fixed chunk width; the last non-empty shard may
  // own fewer).
  NodeId shard_width() const { return chunk_; }

  const Shard& shard(size_t s) const { return shards_[s]; }

  // Shard owning vertex v. O(1): shards are equal-width vertex ranges.
  size_t ShardOf(NodeId v) const { return v / chunk_; }

  // NUMA node shard s is placed on: round-robin s % k over the topology
  // captured at Partition time. Shard s's arrays are first-touch allocated
  // from a thread bound to this node, and the shard-major sweeps below
  // schedule shard s preferentially on that node's workers
  // (ParallelForNodeAffine uses the same s % k mapping).
  size_t NodeOfShard(size_t s) const {
    return placement_nodes_ <= 1 ? 0 : s % placement_nodes_;
  }
  // Topology node count the shards were placed against (1 = no placement).
  size_t placement_nodes() const { return placement_nodes_; }

  EdgeId degree(NodeId v) const {
    const Shard& s = shards_[ShardOf(v)];
    const NodeId local = v - s.first;
    return s.offsets[local + 1] - s.offsets[local];
  }

  std::span<const NodeId> neighbors(NodeId v) const {
    const Shard& s = shards_[ShardOf(v)];
    const NodeId local = v - s.first;
    return {s.neighbors.data() + s.offsets[local],
            static_cast<size_t>(s.offsets[local + 1] - s.offsets[local])};
  }

  // Invokes fn(v) for each neighbor of u in order (sequential).
  template <typename F>
  void MapNeighbors(NodeId u, F&& fn) const {
    for (NodeId v : neighbors(u)) fn(v);
  }

  // As MapNeighbors, but stops early when fn returns false.
  template <typename F>
  void MapNeighborsWhile(NodeId u, F&& fn) const {
    for (NodeId v : neighbors(u)) {
      if (!fn(v)) return;
    }
  }

  // Random access to the i-th neighbor of u (i < degree(u)).
  NodeId NeighborAt(NodeId u, EdgeId i) const {
    const Shard& s = shards_[ShardOf(u)];
    const NodeId local = u - s.first;
    return s.neighbors[s.offsets[local] + i];
  }

  // Invokes fn(u, v) for every directed arc (u, v). Shard-parallel: the
  // outer loop schedules whole shards (grain 1), so each task walks one
  // shard's contiguous offset/neighbor arrays end to end — the shard-major
  // locality this representation exists for. fn must be thread-safe.
  template <typename F>
  void MapArcs(F&& fn) const;

  // As MapArcs but only for sources where pred(u) is true; a skipped
  // vertex's adjacency range is never read.
  template <typename F, typename Pred>
  void MapArcsIf(Pred&& pred, F&& fn) const;

  // Reassembles the single-allocation CSR (the inverse of Partition).
  // GraphHandle::MaterializedCsr uses this for the lazy flat-CSR fallback;
  // each call does O(n + m) work, so callers should cache the result.
  Graph Flatten() const;

 private:
  NodeId num_nodes_ = 0;
  EdgeId num_arcs_ = 0;
  NodeId chunk_ = 1;  // vertices per shard; >= 1 so ShardOf never divides by 0
  size_t placement_nodes_ = 1;  // NumaTopology::num_nodes() at Partition time
  std::vector<Shard> shards_;
};

// ---- template definitions ----

template <typename F>
void ShardedGraph::MapArcs(F&& fn) const {
  MapArcsIf([](NodeId) { return true; }, fn);
}

template <typename F, typename Pred>
void ShardedGraph::MapArcsIf(Pred&& pred, F&& fn) const {
  // Node-affine shard-major sweep: shard s runs preferentially on a worker
  // of node NodeOfShard(s) (idle workers steal), which degenerates to a
  // plain grain-1 ParallelFor on single-node topologies.
  ParallelForNodeAffine(shards_.size(), [&](size_t si) {
    const Shard& s = shards_[si];
    const NodeId count = s.count();
    for (NodeId local = 0; local < count; ++local) {
      const NodeId u = s.first + local;
      if (!pred(u)) continue;
      const EdgeId lo = s.offsets[local];
      const EdgeId hi = s.offsets[local + 1];
      for (EdgeId e = lo; e < hi; ++e) fn(u, s.neighbors[e]);
    }
  });
}

}  // namespace connectit

#endif  // CONNECTIT_GRAPH_SHARDED_H_
