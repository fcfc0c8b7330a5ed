// Post-processing utilities over connectivity labelings: the operations
// downstream users (clustering pipelines, graph cleaning, §1's motivating
// applications) run right after connectivity.

#ifndef CONNECTIT_CORE_COMPONENTS_H_
#define CONNECTIT_CORE_COMPONENTS_H_

#include <utility>
#include <vector>

#include "src/graph/builder.h"
#include "src/graph/csr.h"
#include "src/graph/types.h"
#include "src/parallel/atomics.h"
#include "src/parallel/primitives.h"
#include "src/parallel/thread_pool.h"

namespace connectit {

// Number of distinct components in a labeling whose labels are vertex ids
// with labels[root] == root (the form every ConnectIt algorithm emits).
inline NodeId CountComponents(const std::vector<NodeId>& labels) {
  return static_cast<NodeId>(ParallelCount(
      0, labels.size(),
      [&](size_t v) { return labels[v] == static_cast<NodeId>(v); }));
}

// Counts labels within one block of a labeling and reports the totals
// through add(label, count). A small direct-mapped cache combines repeats,
// so a label covering most of the block costs a few adds, not one per
// vertex: no vertex does an atomic on a shared hot counter. Call Flush()
// at the end of the block.
template <typename Add>
class LabelRunCounter {
 public:
  explicit LabelRunCounter(Add add) : add_(std::move(add)) {}

  void Count(NodeId label) {
    Slot& slot = slots_[label % kSlots];
    if (slot.count != 0 && slot.label == label) {
      ++slot.count;
      return;
    }
    if (slot.count != 0) add_(slot.label, slot.count);
    slot = {label, 1};
  }

  void Flush() {
    for (Slot& slot : slots_) {
      if (slot.count != 0) add_(slot.label, slot.count);
      slot.count = 0;
    }
  }

 private:
  static constexpr NodeId kSlots = 64;
  struct Slot {
    NodeId label = 0;
    NodeId count = 0;
  };
  Slot slots_[kSlots];
  Add add_;
};

// Size of each component, indexed by its label (0 for non-labels).
inline std::vector<NodeId> ComponentSizes(const std::vector<NodeId>& labels) {
  std::vector<NodeId> sizes(labels.size(), 0);
  ParallelForBlocked(0, labels.size(), [&](size_t lo, size_t hi) {
    LabelRunCounter counter([&](NodeId label, NodeId count) {
      FetchAdd<NodeId>(&sizes[label], count);
    });
    for (size_t v = lo; v < hi; ++v) counter.Count(labels[v]);
    counter.Flush();
  });
  return sizes;
}

// Renumbers component labels densely into [0, num_components), preserving
// label order. Returns the dense label per vertex.
inline std::vector<NodeId> DenseComponentIds(
    const std::vector<NodeId>& labels) {
  const size_t n = labels.size();
  // roots[i] = 1 iff i is a component label.
  std::vector<NodeId> rank(n + 1, 0);
  ParallelFor(0, n, [&](size_t v) {
    if (labels[v] == static_cast<NodeId>(v)) rank[v] = 1;
  });
  ScanExclusive(rank.data(), n + 1);
  std::vector<NodeId> dense(n);
  ParallelFor(0, n, [&](size_t v) { dense[v] = rank[labels[v]]; });
  return dense;
}

// Extracts the subgraph induced by the component with label
// `component_label`. vertex_map returns the original id of each subgraph
// vertex.
struct InducedComponent {
  Graph graph;
  std::vector<NodeId> vertex_map;  // subgraph id -> original id
};

inline InducedComponent ExtractComponent(const Graph& graph,
                                         const std::vector<NodeId>& labels,
                                         NodeId component_label) {
  const NodeId n = graph.num_nodes();
  InducedComponent out;
  out.vertex_map = ParallelPack<NodeId>(
      n, [&](size_t v) { return labels[v] == component_label; },
      [](size_t v) { return static_cast<NodeId>(v); });
  std::vector<NodeId> new_id(n, kInvalidNode);
  ParallelFor(0, out.vertex_map.size(), [&](size_t i) {
    new_id[out.vertex_map[i]] = static_cast<NodeId>(i);
  });
  EdgeList edges;
  edges.num_nodes = static_cast<NodeId>(out.vertex_map.size());
  for (const NodeId u : out.vertex_map) {
    for (const NodeId v : graph.neighbors(u)) {
      if (v > u) continue;  // each undirected edge once (v <= u side)
      if (labels[v] != component_label) continue;
      edges.edges.push_back({new_id[u], new_id[v]});
    }
  }
  out.graph = BuildGraph(edges);
  return out;
}

// Histogram of component sizes: (size, count) pairs sorted by size.
inline std::vector<std::pair<NodeId, NodeId>> ComponentSizeHistogram(
    const std::vector<NodeId>& labels) {
  std::vector<NodeId> sizes = ComponentSizes(labels);
  std::vector<NodeId> nonzero = ParallelPack<NodeId>(
      sizes.size(), [&](size_t v) { return sizes[v] > 0; },
      [&](size_t v) { return sizes[v]; });
  ParallelSort(nonzero);
  std::vector<std::pair<NodeId, NodeId>> histogram;
  for (size_t i = 0; i < nonzero.size();) {
    size_t j = i;
    while (j < nonzero.size() && nonzero[j] == nonzero[i]) ++j;
    histogram.emplace_back(nonzero[i], static_cast<NodeId>(j - i));
    i = j;
  }
  return histogram;
}

}  // namespace connectit

#endif  // CONNECTIT_CORE_COMPONENTS_H_
