// Unit tests for the graph substrate: builder, CSR invariants, edge
// extraction, relabeling.

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/graph/builder.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/sharded.h"
#include "src/parallel/thread_pool.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

TEST(Builder, SymmetrizesAndSorts) {
  const Graph g = BuildGraph(4, {{2, 1}, {0, 3}, {1, 3}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  // Every neighbor list is sorted and symmetric.
  for (NodeId u = 0; u < 4; ++u) {
    const auto nbrs = g.neighbors(u);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    for (NodeId v : nbrs) {
      const auto back = g.neighbors(v);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), u));
    }
  }
}

TEST(Builder, RemovesSelfLoopsAndDuplicates) {
  const Graph g =
      BuildGraph(3, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}, {1, 2}});
  EXPECT_EQ(g.num_edges(), 2u);  // {0,1} and {1,2}
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 1u);
}

TEST(Builder, KeepsSelfLoopsWhenAsked) {
  BuildOptions options;
  options.remove_self_loops = false;
  options.remove_duplicates = false;
  const Graph g = BuildGraph(2, {{0, 0}, {0, 1}, {0, 1}}, options);
  // (0,0) symmetrized twice + two copies of {0,1} both ways.
  EXPECT_EQ(g.num_arcs(), 6u);
}

TEST(Builder, EmptyGraph) {
  const Graph g = BuildGraph(0, {});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(Builder, IsolatedVerticesKeepZeroDegree) {
  const Graph g = BuildGraph(10, {{0, 9}});
  for (NodeId v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 0u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(9), 1u);
}

// Endpoints are checked in every build type: an edge past n throws on the
// calling thread instead of writing past the offsets array.
TEST(Builder, RejectsOutOfRangeEndpoints) {
  EXPECT_THROW(BuildGraph(4, {{0, 1}, {2, 4}}), std::out_of_range);
  EXPECT_THROW(BuildGraph(4, {{5, 1}, {2, 3}}), std::out_of_range);
  EXPECT_THROW(BuildGraph(0, {{0, 0}}), std::out_of_range);
  try {
    BuildGraph(4, {{0, 1}, {2, 4}});
    FAIL() << "no exception";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("(2, 4)"), std::string::npos)
        << e.what();
  }

  const EdgeList bad_target{4, {{0, 1}, {2, 4}}};
  const EdgeList bad_source{4, {{5, 1}, {2, 3}}};
  const EdgeList empty_range{0, {{0, 0}}};
  EXPECT_THROW(ShardedGraph::BuildShard(bad_target, 0, 4), std::out_of_range);
  EXPECT_THROW(ShardedGraph::BuildShard(bad_source, 0, 4), std::out_of_range);
  EXPECT_THROW(ShardedGraph::BuildShard(empty_range, 0, 0), std::out_of_range);
  // The bad edge's endpoints lie outside the shard's range: still an error.
  EXPECT_THROW(ShardedGraph::BuildShard(bad_target, 0, 2), std::out_of_range);
}

// Inputs for the reference tests: RMAT and Erdos-Renyi edge lists, with
// self-loops, repeats and reversed repeats appended. The large ones span
// four 4096-vertex buckets (the last one ragged) and, at >= 2^16 edges,
// several partition blocks even on a one-worker pool.
std::vector<std::pair<std::string, EdgeList>> ReferenceInputs() {
  constexpr NodeId kLargeN = 3 * 4096 + 17;
  std::vector<std::pair<std::string, EdgeList>> inputs = {
      {"rmat_large", GenerateRmatEdges(kLargeN, 80000, /*seed=*/7)},
      {"er_large", GenerateErdosRenyiEdges(kLargeN, 70000, /*seed=*/8)},
      {"rmat_100", GenerateRmatEdges(100, 600, /*seed=*/9)},
      {"er_100", GenerateErdosRenyiEdges(100, 300, /*seed=*/10)},
  };
  for (auto& [name, list] : inputs) {
    const size_t m = list.edges.size();
    for (size_t i = 0; i < m; i += 7) {
      const Edge e = list.edges[i];
      list.edges.push_back(e);
      list.edges.push_back({e.v, e.u});
      list.edges.push_back({e.u, e.u});
    }
    list.edges.push_back({list.num_nodes - 1, list.num_nodes - 1});
  }
  return inputs;
}

// Sequential std::sort + std::unique reference for the rows of the sources
// in [first, first + count).
struct ReferenceRows {
  std::vector<EdgeId> offsets;
  std::vector<NodeId> neighbors;
};

ReferenceRows SortReference(const EdgeList& edges, NodeId first,
                            NodeId count, const BuildOptions& options) {
  std::vector<Edge> arcs;
  const auto add = [&](NodeId u, NodeId v) {
    if (u < first || u - first >= count) return;
    if (options.remove_self_loops && u == v) return;
    arcs.push_back({u, v});
  };
  for (const Edge& e : edges.edges) {
    add(e.u, e.v);
    if (options.symmetrize) add(e.v, e.u);
  }
  std::sort(arcs.begin(), arcs.end());
  if (options.remove_duplicates) {
    arcs.erase(std::unique(arcs.begin(), arcs.end()), arcs.end());
  }
  ReferenceRows rows;
  rows.offsets.assign(static_cast<size_t>(count) + 1, 0);
  for (const Edge& a : arcs) {
    ++rows.offsets[a.u - first + 1];
    rows.neighbors.push_back(a.v);
  }
  for (size_t v = 1; v <= count; ++v) rows.offsets[v] += rows.offsets[v - 1];
  return rows;
}

// BuildGraph under every BuildOptions combination, at pool sizes 1 and 4.
TEST(Builder, MatchesSortReference) {
  for (const auto& [name, edges] : ReferenceInputs()) {
    for (int mask = 0; mask < 8; ++mask) {
      BuildOptions options;
      options.symmetrize = (mask & 1) != 0;
      options.remove_self_loops = (mask & 2) != 0;
      options.remove_duplicates = (mask & 4) != 0;
      const ReferenceRows want =
          SortReference(edges, 0, edges.num_nodes, options);
      for (const size_t workers : {size_t{1}, size_t{4}}) {
        SetNumWorkers(workers);
        const Graph g = BuildGraph(edges, options);
        const std::string where = name + " options=" + std::to_string(mask) +
                                  " workers=" + std::to_string(workers);
        EXPECT_EQ(g.offsets(), want.offsets) << where;
        EXPECT_EQ(g.neighbor_array(), want.neighbors) << where;
      }
    }
  }
  SetNumWorkers(0);
}

// BuildShard on ranges whose first vertex is off the 4096-vertex bucket
// grid, ranges that straddle bucket edges, the ragged tail, the whole graph
// and an empty range, at pool sizes 1 and 4.
TEST(Builder, BuildShardMatchesSortReference) {
  for (const auto& [name, edges] : ReferenceInputs()) {
    const NodeId n = edges.num_nodes;
    const std::vector<std::pair<NodeId, NodeId>> ranges = {
        {0, n},
        {1, n - 1},
        {n / 3, n / 3},
        {n - 17, 17},
        {n / 2, 0},
        {std::min<NodeId>(4095, n - 2), 2},
        {std::min<NodeId>(1000, n / 2), n / 2},
    };
    for (const auto& [first, count] : ranges) {
      const ReferenceRows want =
          SortReference(edges, first, count, BuildOptions{});
      for (const size_t workers : {size_t{1}, size_t{4}}) {
        SetNumWorkers(workers);
        const ShardedGraph::Shard got =
            ShardedGraph::BuildShard(edges, first, count);
        const std::string where = name + " [" + std::to_string(first) +
                                  ", +" + std::to_string(count) +
                                  ") workers=" + std::to_string(workers);
        EXPECT_EQ(got.first, first) << where;
        EXPECT_EQ(got.offsets, want.offsets) << where;
        EXPECT_EQ(got.neighbors, want.neighbors) << where;
      }
    }
  }
  SetNumWorkers(0);
}

TEST(Csr, OffsetsAreConsistent) {
  for (const auto& [name, g] : testing::CorrectnessBasket()) {
    const auto& offsets = g.offsets();
    if (g.num_nodes() == 0) continue;
    ASSERT_EQ(offsets.size(), g.num_nodes() + 1u) << name;
    EXPECT_EQ(offsets.front(), 0u) << name;
    EXPECT_EQ(offsets.back(), g.num_arcs()) << name;
    EXPECT_TRUE(std::is_sorted(offsets.begin(), offsets.end())) << name;
  }
}

TEST(Csr, MapArcsVisitsEveryArcOnce) {
  const Graph g = GenerateRmat(256, 1024, 1);
  std::atomic<EdgeId> count{0};
  g.MapArcs([&](NodeId u, NodeId v) {
    ASSERT_LT(u, g.num_nodes());
    ASSERT_LT(v, g.num_nodes());
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), g.num_arcs());
}

TEST(Csr, MapArcsIfFiltersSources) {
  const Graph g = GenerateComplete(10);
  std::atomic<EdgeId> count{0};
  g.MapArcsIf([](NodeId u) { return u < 5; },
              [&](NodeId u, NodeId) {
                ASSERT_LT(u, 5u);
                count.fetch_add(1, std::memory_order_relaxed);
              });
  EXPECT_EQ(count.load(), 5u * 9u);
}

TEST(Csr, DegreeStats) {
  const Graph g = GenerateStar(101);
  const DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_EQ(stats.max_degree, 100u);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 200.0 / 101.0);
}

TEST(ExtractEdges, RoundTripsThroughBuilder) {
  for (const auto& [name, g] : testing::CorrectnessBasket()) {
    const EdgeList edges = ExtractEdges(g);
    EXPECT_EQ(edges.size(), g.num_edges()) << name;
    for (const Edge& e : edges.edges) EXPECT_LT(e.u, e.v) << name;
    const Graph rebuilt = BuildGraph(edges);
    EXPECT_EQ(rebuilt.num_arcs(), g.num_arcs()) << name;
    EXPECT_EQ(rebuilt.neighbor_array(), g.neighbor_array()) << name;
    EXPECT_EQ(rebuilt.offsets(), g.offsets()) << name;
  }
}

TEST(RandomPermutation, IsAPermutation) {
  const std::vector<NodeId> perm = RandomPermutation(1000, 5);
  std::set<NodeId> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 999u);
  // Deterministic per seed, different across seeds.
  EXPECT_EQ(RandomPermutation(1000, 5), perm);
  EXPECT_NE(RandomPermutation(1000, 6), perm);
}

TEST(RelabelGraph, PreservesStructure) {
  const Graph g = GenerateRmat(128, 512, 2);
  const std::vector<NodeId> perm = RandomPermutation(g.num_nodes(), 3);
  const Graph relabeled = RelabelGraph(g, perm);
  EXPECT_EQ(relabeled.num_nodes(), g.num_nodes());
  EXPECT_EQ(relabeled.num_edges(), g.num_edges());
  // Edge {u, v} exists iff {perm[u], perm[v]} exists in the relabeled graph.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      const auto nbrs = relabeled.neighbors(perm[u]);
      EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), perm[v]));
    }
  }
}

}  // namespace
}  // namespace connectit
