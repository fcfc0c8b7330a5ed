// A STINGER-like streaming connected-components baseline (paper §4.4.3).
//
// STINGER stores a dynamic graph as per-vertex chains of fixed-size edge
// blocks with fine-grained locking, and maintains component labels under
// insertions with the algorithm of McColl et al.: when an inserted edge
// joins two components, the smaller label wins and every vertex carrying
// the losing label is relabeled by a parallel sweep over the vertex array.
// The per-merge O(n) sweep — the price STINGER pays for supporting
// deletions — is what ConnectIt's Table 5 comparison measures.
//
// This is a clean-room reimplementation of the published algorithm (we do
// not have the original system).

#ifndef CONNECTIT_BASELINES_STINGER_CC_H_
#define CONNECTIT_BASELINES_STINGER_CC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/types.h"

namespace connectit {

// Dynamic blocked adjacency structure in the STINGER style.
class StingerGraph {
 public:
  static constexpr size_t kBlockSize = 14;  // edges per block, as in STINGER

  explicit StingerGraph(NodeId num_nodes);
  ~StingerGraph();

  StingerGraph(const StingerGraph&) = delete;
  StingerGraph& operator=(const StingerGraph&) = delete;

  // Inserts the directed arc u -> v (walks u's block chain under u's lock).
  void InsertArc(NodeId u, NodeId v);

  // Removes one copy of the directed arc u -> v (swap-remove with the
  // chain's last entry, the STINGER deletion-hole discipline). Returns
  // false if the arc is not present.
  bool RemoveArc(NodeId u, NodeId v);

  NodeId num_nodes() const { return num_nodes_; }
  EdgeId num_arcs() const;

  // Invokes fn(v) for each neighbor of u (not thread-safe vs. inserts to u).
  template <typename F>
  void MapNeighbors(NodeId u, F&& fn) const;

 private:
  struct Block {
    NodeId entries[kBlockSize];
    uint32_t count = 0;
    Block* next = nullptr;
  };

  NodeId num_nodes_ = 0;
  std::vector<Block*> heads_;
  std::unique_ptr<std::atomic<uint8_t>[]> locks_;
  std::atomic<EdgeId> arcs_{0};
};

// Streaming CC over a StingerGraph.
class StingerStreamingCC {
 public:
  explicit StingerStreamingCC(NodeId num_nodes);

  // Inserts a batch of undirected edges, maintaining labels. Returns the
  // time spent updating the labeling only (seconds), excluding adjacency
  // maintenance, matching the paper's measurement protocol.
  double InsertBatch(const std::vector<Edge>& batch);

  // Deletes a batch of undirected edges, maintaining labels in the McColl
  // style: each deletion inside a component triggers a BFS over the
  // component to test whether it split, and a split pays one parallel
  // O(n) relabeling sweep — the deletion-side mirror of the per-merge
  // sweep above. Returns the label-maintenance time only (seconds).
  double EraseBatch(const std::vector<Edge>& batch);

  const std::vector<NodeId>& labels() const { return labels_; }
  StingerGraph& graph() { return graph_; }

 private:
  StingerGraph graph_;
  std::vector<NodeId> labels_;
};

// ---- template definition ----

template <typename F>
void StingerGraph::MapNeighbors(NodeId u, F&& fn) const {
  for (const Block* b = heads_[u]; b != nullptr; b = b->next) {
    for (uint32_t i = 0; i < b->count; ++i) fn(b->entries[i]);
  }
}

}  // namespace connectit

#endif  // CONNECTIT_BASELINES_STINGER_CC_H_
