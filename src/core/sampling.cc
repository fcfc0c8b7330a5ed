#include "src/core/sampling.h"

#include <algorithm>

#include "src/core/components.h"
#include "src/parallel/primitives.h"

namespace connectit {

void KOutSample(const Graph& graph, const KOutOptions& options,
                std::vector<NodeId>& labels) {
  KOutSampleT(graph, options, labels);
}

void KOutSampleForest(const Graph& graph, const KOutOptions& options,
                      std::vector<NodeId>& labels, std::vector<Edge>& slots) {
  internal_sampling::KOutSampleImpl<true>(graph, options, labels, &slots);
}

void BfsSample(const Graph& graph, const BfsSampleOptions& options,
               std::vector<NodeId>& labels) {
  BfsSampleT(graph, options, labels);
}

void BfsSampleForest(const Graph& graph, const BfsSampleOptions& options,
                     std::vector<NodeId>& labels, std::vector<Edge>& slots) {
  internal_sampling::BfsSampleImpl<true>(graph, options, labels, &slots);
}

void LddSample(const Graph& graph, const LddSampleOptions& options,
               std::vector<NodeId>& labels) {
  LddSampleT(graph, options, labels);
}

void LddSampleForest(const Graph& graph, const LddSampleOptions& options,
                     std::vector<NodeId>& labels, std::vector<Edge>& slots) {
  internal_sampling::LddSampleImpl<true>(graph, options, labels, &slots);
}

void RunSampling(const Graph& graph, const SamplingConfig& config,
                 std::vector<NodeId>& labels) {
  RunSamplingT(graph, config, labels);
}

void RunSamplingForest(const Graph& graph, const SamplingConfig& config,
                       std::vector<NodeId>& labels, std::vector<Edge>& slots) {
  RunSamplingForestT(graph, config, labels, slots);
}

SamplingQuality MeasureSamplingQuality(const Graph& graph,
                                       const std::vector<NodeId>& labels) {
  SamplingQuality q;
  const NodeId n = graph.num_nodes();
  if (n == 0) return q;
  // Coverage: most frequent cluster size over n. ComponentSizes combines
  // counts per block, so the giant cluster's counter takes a few adds
  // rather than one per member.
  const std::vector<NodeId> sizes = ComponentSizes(labels);
  const NodeId best = ParallelReduce<NodeId>(
      0, n, 0, [&](size_t c) { return sizes[c]; },
      [](NodeId a, NodeId b) { return std::max(a, b); });
  q.coverage = static_cast<double>(best) / static_cast<double>(n);
  q.num_clusters = static_cast<NodeId>(
      ParallelCount(0, n, [&](size_t c) { return sizes[c] > 0; }));
  // Inter-component (inter-cluster) arc fraction, counted per vertex.
  const EdgeId inter = ParallelSum<EdgeId>(0, n, [&](size_t ui) {
    const NodeId label = labels[ui];
    EdgeId count = 0;
    for (const NodeId v : graph.neighbors(static_cast<NodeId>(ui))) {
      count += labels[v] != label;
    }
    return count;
  });
  q.intercomponent_fraction =
      graph.num_arcs() == 0 ? 0.0
                            : static_cast<double>(inter) /
                                  static_cast<double>(graph.num_arcs());
  return q;
}

}  // namespace connectit
