// Tests for component post-processing utilities and COO-direct
// connectivity.

#include <gtest/gtest.h>

#include "src/algo/verify.h"
#include "src/core/components.h"
#include "src/core/connectit.h"
#include "src/graph/generators.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

std::vector<NodeId> LabelsOf(const Graph& g) {
  return SequentialComponents(g);
}

TEST(Components, CountMatchesOracleOnBasket) {
  for (const auto& [name, g] : testing::CorrectnessBasket()) {
    const auto labels = LabelsOf(g);
    EXPECT_EQ(CountComponents(labels),
              ComputeComponentStats(labels).num_components)
        << name;
  }
}

TEST(Components, SizesSumToN) {
  const Graph g = GenerateComponentMixture(1000, 5, 3);
  const auto labels = LabelsOf(g);
  const auto sizes = ComponentSizes(labels);
  NodeId total = 0;
  for (NodeId s : sizes) total += s;
  EXPECT_EQ(total, g.num_nodes());
  // Every label's size is positive; every non-label's is zero.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (labels[v] == v) {
      EXPECT_GT(sizes[v], 0u);
    }
  }
}

// One label covers over 80% of 2^20 vertices and the rest are singletons:
// the block-combined counts equal a sequential count exactly.
TEST(Components, SizesMatchSequentialCountWithGiantComponent) {
  const NodeId n = 1u << 20;
  const NodeId giant = 12345;
  std::vector<NodeId> labels(n);
  for (NodeId v = 0; v < n; ++v) {
    const bool in_giant = (v * 2654435761u) % 100 < 85;
    labels[v] = in_giant || v == giant ? giant : v;
  }
  std::vector<NodeId> expected(n, 0);
  for (const NodeId label : labels) ++expected[label];
  ASSERT_GE(expected[giant], n / 10 * 8);
  EXPECT_EQ(ComponentSizes(labels), expected);
}

TEST(Components, DenseIdsAreDenseAndConsistent) {
  const Graph g = GenerateComponentMixture(500, 4, 9);
  const auto labels = LabelsOf(g);
  const auto dense = DenseComponentIds(labels);
  const NodeId k = CountComponents(labels);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_LT(dense[v], k);
    for (NodeId u = 0; u < v; ++u) {
      EXPECT_EQ(labels[u] == labels[v], dense[u] == dense[v]);
    }
    if (v > 50) break;  // pairwise check on a prefix is enough
  }
}

TEST(Components, ExtractComponentInducesSubgraph) {
  //   triangle {0,1,2} + path {3,4} + isolated {5}
  const Graph g = BuildGraph(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}});
  const auto labels = LabelsOf(g);
  const InducedComponent tri = ExtractComponent(g, labels, labels[0]);
  EXPECT_EQ(tri.graph.num_nodes(), 3u);
  EXPECT_EQ(tri.graph.num_edges(), 3u);
  EXPECT_EQ(tri.vertex_map, (std::vector<NodeId>{0, 1, 2}));
  const InducedComponent pair = ExtractComponent(g, labels, labels[3]);
  EXPECT_EQ(pair.graph.num_nodes(), 2u);
  EXPECT_EQ(pair.graph.num_edges(), 1u);
  const InducedComponent lone = ExtractComponent(g, labels, labels[5]);
  EXPECT_EQ(lone.graph.num_nodes(), 1u);
  EXPECT_EQ(lone.graph.num_edges(), 0u);
}

TEST(Components, HistogramShapes) {
  const Graph g = BuildGraph(7, {{0, 1}, {2, 3}, {4, 5}});
  // Components: {0,1}, {2,3}, {4,5}, {6} -> sizes 2,2,2,1.
  const auto histogram = ComponentSizeHistogram(LabelsOf(g));
  ASSERT_EQ(histogram.size(), 2u);
  EXPECT_EQ(histogram[0], (std::pair<NodeId, NodeId>{1, 1}));
  EXPECT_EQ(histogram[1], (std::pair<NodeId, NodeId>{2, 3}));
}

TEST(CooConnectivity, UnionFindFormMatchesGroundTruth) {
  const EdgeList edges = GenerateErdosRenyiEdges(2048, 6000, 3);
  const auto truth = SequentialComponents(edges);
  const auto a = ConnectivityOnEdges<UniteOption::kRemCas, FindOption::kNaive,
                                     SpliceOption::kSplitOne>(edges);
  EXPECT_TRUE(SamePartition(a, truth));
  const auto b =
      ConnectivityOnEdges<UniteOption::kAsync, FindOption::kCompress>(edges);
  EXPECT_TRUE(SamePartition(b, truth));
  const auto c =
      ConnectivityOnEdges<UniteOption::kJtb, FindOption::kTwoTrySplit>(edges);
  EXPECT_TRUE(SamePartition(c, truth));
}

TEST(CooConnectivity, LiuTarjanFormMatchesGroundTruth) {
  const EdgeList edges = GenerateRmatEdges(1024, 4096, 7);
  const auto truth = SequentialComponents(edges);
  const auto a =
      ConnectivityOnEdgesLt<LtConnect::kConnect, LtUpdate::kUpdate,
                            LtShortcut::kShortcut, LtAlter::kAlter>(edges);
  EXPECT_TRUE(SamePartition(a, truth));
  const auto b = ConnectivityOnEdgesLt<LtConnect::kParentConnect,
                                       LtUpdate::kRootUp,
                                       LtShortcut::kFullShortcut,
                                       LtAlter::kNoAlter>(edges);
  EXPECT_TRUE(SamePartition(b, truth));
}

TEST(CooConnectivity, EmptyAndSelfLoopEdgeLists) {
  EdgeList empty;
  empty.num_nodes = 5;
  const auto labels =
      ConnectivityOnEdges<UniteOption::kAsync, FindOption::kNaive>(empty);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(labels[v], v);

  EdgeList loops;
  loops.num_nodes = 3;
  loops.edges = {{1, 1}, {2, 2}};
  const auto l2 =
      ConnectivityOnEdges<UniteOption::kAsync, FindOption::kNaive>(loops);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(l2[v], v);
}

}  // namespace
}  // namespace connectit
