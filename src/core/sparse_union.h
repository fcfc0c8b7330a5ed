// Union-find over the few labels a batch of edge insertions touches.
//
// A batch of b edges merges at most b components, so both mutators that
// apply batches over a labeling — the snapshot publisher in
// connectivity_index.cc and DynamicForest::InsertBatch — group the touched
// labels here instead of sweeping all n vertices. Labels absent from the
// map are their own roots, so the cost depends on the labels touched, not
// on n.

#ifndef CONNECTIT_CORE_SPARSE_UNION_H_
#define CONNECTIT_CORE_SPARSE_UNION_H_

#include <unordered_map>
#include <utility>

#include "src/graph/types.h"

namespace connectit {

class SparseUnion {
 public:
  // The root of label x's group (path halving on the way).
  NodeId Find(NodeId x) {
    for (;;) {
      const auto it = parent_.find(x);
      if (it == parent_.end()) return x;
      const auto up = parent_.find(it->second);
      if (up == parent_.end()) return it->second;
      it->second = up->second;
      x = up->second;
    }
  }

  // The root of label x's group without compressing, so concurrent callers
  // may share it once the unions are done.
  NodeId FindConst(NodeId x) const {
    for (auto it = parent_.find(x); it != parent_.end();
         it = parent_.find(x)) {
      x = it->second;
    }
    return x;
  }

  // Merges the groups of labels a and b; keep_first(ra, rb) says whether
  // root ra survives over root rb. Returns {winner, loser}, or
  // {kInvalidNode, kInvalidNode} when a and b already share a group.
  template <typename KeepFirst>
  std::pair<NodeId, NodeId> Unite(NodeId a, NodeId b, KeepFirst&& keep_first) {
    const NodeId ra = Find(a);
    const NodeId rb = Find(b);
    if (ra == rb) return {kInvalidNode, kInvalidNode};
    const bool first = keep_first(ra, rb);
    const NodeId winner = first ? ra : rb;
    const NodeId loser = first ? rb : ra;
    parent_[loser] = winner;
    return {winner, loser};
  }

  // Calls fn(label, root) once for every label merged into another group.
  template <typename F>
  void ForEachMerged(F&& fn) {
    for (auto& [label, parent] : parent_) fn(label, Find(parent));
  }

  // Points every merged label straight at its root, so FindConst takes at
  // most one hop.
  void Flatten() {
    for (auto& [label, parent] : parent_) parent = Find(parent);
  }

  bool empty() const { return parent_.empty(); }
  void clear() { parent_.clear(); }

 private:
  std::unordered_map<NodeId, NodeId> parent_;  // merged label -> parent
};

}  // namespace connectit

#endif  // CONNECTIT_CORE_SPARSE_UNION_H_
