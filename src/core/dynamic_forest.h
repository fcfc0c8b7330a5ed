// Dynamic spanning forest for batch deletions (the Erase backbone).
//
// The Connectivity façade's published labeling only ever merges on Insert:
// a union can never be undone, so deletions need a second structure that
// remembers *which* edges carry the connectivity. DynamicForest keeps,
// beside the published labeling:
//   - the current edge multigraph as per-vertex adjacency (deduplicated;
//     self-loops are dropped, they never affect connectivity),
//   - the subset of edges forming a spanning forest (seeded from the
//     variant's own run_forest pass, then maintained incrementally), and
//   - a canonical labeling (label = minimum vertex id of the component),
//     which the façade publishes whenever an Erase splits a component.
//
// Deleting a non-forest edge is free — the forest still spans. Deleting a
// forest edge (u, v) leaves two trees; walking both in lockstep finds the
// smaller one, S, at a cost bounded by S's own adjacency, and any surviving
// edge leaving S is a replacement that becomes a forest edge. Without one,
// S splits off and only one side is relabelled. A deletion with a
// surviving replacement therefore leaves the labeling bit-for-bit
// unchanged, and an Erase costs the small sides it cuts, not n.
//
// Not thread-safe: the Connectivity façade serializes mutations under its
// exclusive lock, exactly as it does for Insert.

#ifndef CONNECTIT_CORE_DYNAMIC_FOREST_H_
#define CONNECTIT_CORE_DYNAMIC_FOREST_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/connectit.h"
#include "src/core/edge_key_set.h"
#include "src/core/sparse_union.h"
#include "src/graph/graph_handle.h"
#include "src/graph/types.h"

namespace connectit {

class DynamicForest {
 public:
  // What one EraseBatch did, for the serving counters and the publication
  // Connectivity::Erase chooses.
  struct EraseStats {
    uint64_t erased = 0;       // edges actually removed
    uint64_t misses = 0;       // absent edges and self-loops (no-ops)
    uint64_t forest_hits = 0;  // removed edges that were forest edges
    // Replacement searches run (one per deleted forest edge).
    uint64_t replacement_searches = 0;
    // Searches that found no replacement, so a component split in two
    // (0 = every deleted forest edge had a surviving replacement).
    uint64_t components_split = 0;
    // True iff the partition changed (components_split > 0), i.e. the
    // published labeling is stale and Labels() must be published in full.
    bool labels_changed = false;
  };

  // n isolated vertices, no edges (the cold-start shape).
  explicit DynamicForest(NodeId n);

  // Adopts a built graph's adjacency plus the spanning forest its variant
  // computed (run_forest output: labels, each a vertex id, + forest
  // edges). Call at most once, on a fresh forest, before any Insert/Erase
  // batch.
  //
  // A bulk load with the result of adding the graph one edge at a time,
  // each new edge appending one arc to both lists: each list holds its
  // neighbours in that order (input order for a COO list, whose self-loops
  // and repeats are dropped; the representation's neighbour order
  // otherwise) at the capacity those push_backs reach; the forest set is
  // exactly forest.edges; the labels are forest.labels canonicalized to
  // min-rooted form. The key sets are reserved once and filled through a
  // prefetch window, the lists are reserved on the calling thread and
  // filled in parallel.
  void AdoptGraph(const GraphHandle& graph,
                  const SpanningForestResult& forest);

  // Applies edge insertions: new edges join the adjacency; an edge that
  // merges two components becomes a forest edge and the smaller canonical
  // label wins (labels stay min-rooted). Duplicates and self-loops are
  // no-ops. Costs time in the batch, not in n: the edge keys go through the
  // bulk load's prefetch window, and merges wait in a pending map until the
  // next Labels() or EraseBatch applies them in one sweep. The result
  // equals inserting the edges one at a time, in batch order.
  void InsertBatch(const std::vector<Edge>& updates);

  // Applies edge deletions; see the header comment for the algorithm.
  EraseStats EraseBatch(const std::vector<Edge>& updates);

  bool HasEdge(NodeId u, NodeId v) const {
    return u != v && edges_.Contains(Key(u, v));
  }
  bool IsForestEdge(NodeId u, NodeId v) const {
    return u != v && forest_.Contains(Key(u, v));
  }
  // The neighbours of v, in adjacency order.
  const std::vector<NodeId>& Neighbors(NodeId v) const { return adj_[v]; }
  // The canonical labeling (label = min vertex id of the component), fully
  // compressed. Applies the pending merges first.
  const std::vector<NodeId>& Labels();

  NodeId num_nodes() const { return static_cast<NodeId>(adj_.size()); }
  size_t num_edges() const { return edges_.size(); }
  size_t num_forest_edges() const { return forest_.size(); }

 private:
  // Canonical (order-independent) 64-bit key of an undirected edge.
  static uint64_t Key(NodeId u, NodeId v) {
    const NodeId lo = u < v ? u : v;
    const NodeId hi = u < v ? v : u;
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }

  // Reserves every list to the capacity degree[v] push_backs reach from
  // empty (the next power of two), on the calling thread: a list the
  // mutator later grows then frees its old buffer into the mutator's own
  // malloc arena, as MakeSnapshotData's pages do.
  void ReserveLists(const std::vector<EdgeId>& degree);
  void RemoveArc(NodeId u, NodeId v);
  // Relabels every vertex through pending_ and empties it (Θ(n) once).
  void ApplyPendingMerges();

  // A depth-first walk of one tree of the forest, one adjacency entry per
  // Step; the vertices it reached carry its stamp in mark_.
  struct TreeWalk {
    uint32_t stamp = 0;
    std::vector<std::pair<NodeId, size_t>> stack;  // vertex, next entry
    std::vector<NodeId> seen;
  };
  TreeWalk StartWalk(NodeId root);
  // Scans one adjacency entry; false once the walk's tree is exhausted.
  bool Step(TreeWalk& walk);
  // After the forest edge (u, v) is deleted: adds a replacement edge and
  // returns true, or relabels the side that split off and returns false.
  bool Reconnect(NodeId u, NodeId v);

  std::vector<std::vector<NodeId>> adj_;
  EdgeKeySet edges_;   // every present edge, canonical key
  EdgeKeySet forest_;  // the spanning subset of edges_
  // Canonical min-rooted labeling once pending_ is applied: the label of v
  // is pending_.Find(labels_[v]).
  std::vector<NodeId> labels_;
  SparseUnion pending_;  // merges since the last ApplyPendingMerges
  std::vector<uint32_t> mark_;  // walk stamps, sized on the first search
  uint32_t stamp_ = 0;
};

}  // namespace connectit

#endif  // CONNECTIT_CORE_DYNAMIC_FOREST_H_
