// Tests for the sampling phase: Definition 3.1 properties, value
// monotonicity, per-scheme behavior, the exact k-out pick contract, quality
// metrics, and IdentifyFrequent.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algo/verify.h"
#include "src/core/components.h"
#include "src/core/connectit.h"
#include "src/core/frequent.h"
#include "src/core/sampling.h"
#include "src/graph/compressed.h"
#include "src/parallel/thread_pool.h"
#include "tests/test_graphs.h"

namespace connectit {
namespace {

// Definition 3.1(1): labels form a rooted depth-<=1 forest; our schemes
// additionally guarantee labels[v] <= v (cluster-min normalization).
void CheckSampleInvariants(const std::string& context, const Graph& graph,
                           const std::vector<NodeId>& labels) {
  ASSERT_EQ(labels.size(), graph.num_nodes()) << context;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    ASSERT_LT(labels[v], graph.num_nodes()) << context;
    EXPECT_EQ(labels[labels[v]], labels[v]) << context << " v=" << v;
    EXPECT_LE(labels[v], v) << context << " v=" << v;
  }
}

// Definition 3.1(2): the sampled labeling is a valid partial labeling —
// vertices sharing a label must be connected in G.
void CheckPartialLabeling(const std::string& context, const Graph& graph,
                          const std::vector<NodeId>& labels) {
  const std::vector<NodeId> truth = SequentialComponents(graph);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_EQ(truth[labels[v]], truth[v])
        << context << ": sampling merged disconnected vertices, v=" << v;
  }
}

class SamplingSchemes
    : public ::testing::TestWithParam<SamplingOption> {};

TEST_P(SamplingSchemes, SatisfiesDefinition31OnBasket) {
  SamplingConfig config;
  config.option = GetParam();
  for (const auto& [name, graph] : testing::CorrectnessBasket()) {
    std::vector<NodeId> labels = IdentityLabels(graph.num_nodes());
    RunSampling(graph, config, labels);
    const std::string context =
        std::string(ToString(GetParam())) + "/" + name;
    CheckSampleInvariants(context, graph, labels);
    CheckPartialLabeling(context, graph, labels);
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, SamplingSchemes,
                         ::testing::Values(SamplingOption::kKOut,
                                           SamplingOption::kBfs,
                                           SamplingOption::kLdd),
                         [](const auto& info) {
                           return std::string(ToString(info.param));
                         });

TEST(KOutSampling, AllVariantsProduceValidPartialLabelings) {
  const Graph g = GenerateRmat(2048, 8192, 3);
  for (const KOutVariant variant :
       {KOutVariant::kAfforest, KOutVariant::kPure, KOutVariant::kHybrid,
        KOutVariant::kMaxDegree}) {
    for (uint32_t k : {1u, 2u, 4u}) {
      KOutOptions options;
      options.variant = variant;
      options.k = k;
      std::vector<NodeId> labels = IdentityLabels(g.num_nodes());
      KOutSample(g, options, labels);
      const std::string context = std::string(ToString(variant)) +
                                  "/k=" + std::to_string(k);
      CheckSampleInvariants(context, g, labels);
      CheckPartialLabeling(context, g, labels);
    }
  }
}

// The documented k-out picks of every vertex, written out sequentially:
// afforest takes neighbors 0..min(k, deg)-1; hybrid neighbor 0 and maxdeg
// the first highest-degree neighbor as pick 0; every other pick j is
// neighbor Rng(seed).GetBounded(u*k + j, deg).
std::vector<Edge> ReferencePicks(const Graph& g, const KOutOptions& options) {
  const Rng rng(options.seed);
  const uint32_t k = options.k;
  std::vector<Edge> picks;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    const EdgeId deg = nbrs.size();
    if (deg == 0) continue;
    uint32_t j = 0;
    switch (options.variant) {
      case KOutVariant::kAfforest:
        for (; j < std::min<EdgeId>(k, deg); ++j) {
          picks.push_back({u, nbrs[j]});
        }
        continue;
      case KOutVariant::kHybrid:
        picks.push_back({u, nbrs[0]});
        j = 1;
        break;
      case KOutVariant::kMaxDegree: {
        NodeId best = nbrs[0];
        for (const NodeId v : nbrs) {
          if (g.degree(v) > g.degree(best)) best = v;
        }
        picks.push_back({u, best});
        j = 1;
        break;
      }
      case KOutVariant::kPure:
        break;
    }
    for (; j < k; ++j) {
      picks.push_back(
          {u, nbrs[rng.GetBounded(static_cast<uint64_t>(u) * k + j, deg)]});
    }
  }
  return picks;
}

// Labelings compared vertex by vertex, reporting the first difference.
::testing::AssertionResult SameLabels(const std::vector<NodeId>& actual,
                                      const std::vector<NodeId>& expected) {
  if (actual.size() != expected.size()) {
    return ::testing::AssertionFailure()
           << "size " << actual.size() << " != " << expected.size();
  }
  for (NodeId v = 0; v < actual.size(); ++v) {
    if (actual[v] != expected[v]) {
      return ::testing::AssertionFailure()
             << "label of " << v << " is " << actual[v] << ", expected "
             << expected[v];
    }
  }
  return ::testing::AssertionSuccess();
}

// Pins the k-out contract exactly: a dropped, duplicated or re-indexed
// pick changes some cluster, which validity and coverage checks miss.
TEST(KOutSampling, MatchesSequentialReference) {
  const size_t original = NumWorkers();
  const std::vector<std::pair<std::string, Graph>> graphs = {
      {"rmat", GenerateRmat(1u << 14, 1u << 16, 11)},
      {"grid", GenerateGrid(96, 96)}};
  for (const auto& [name, g] : graphs) {
    const CompressedGraph coded = CompressedGraph::Encode(g);
    const NodeId n = g.num_nodes();
    for (const KOutVariant variant :
         {KOutVariant::kAfforest, KOutVariant::kPure, KOutVariant::kHybrid,
          KOutVariant::kMaxDegree}) {
      for (const uint32_t k : {1u, 2u, 5u}) {
        KOutOptions options;
        options.variant = variant;
        options.k = k;
        const std::vector<Edge> picks = ReferencePicks(g, options);
        const std::set<Edge> pick_set(picks.begin(), picks.end());
        const std::vector<NodeId> expected =
            SequentialComponents(EdgeList{n, picks});
        const NodeId clusters = CountComponents(expected);
        for (const size_t workers : {1u, 4u}) {
          SetNumWorkers(workers);
          const std::string context =
              name + "/" + std::string(ToString(variant)) + "/k=" +
              std::to_string(k) + "/workers=" + std::to_string(workers);
          std::vector<NodeId> labels = IdentityLabels(n);
          KOutSample(g, options, labels);
          EXPECT_TRUE(SameLabels(labels, expected)) << context << "/csr";
          labels = IdentityLabels(n);
          KOutSampleT(coded, options, labels);
          EXPECT_TRUE(SameLabels(labels, expected))
              << context << "/compressed";

          // Forest form: one slot per sampled link, each slot a sampled
          // graph edge, and the slots alone rebuild the clusters.
          std::vector<Edge> slots(n, kEmptySlot);
          labels = IdentityLabels(n);
          KOutSampleForest(g, options, labels, slots);
          EXPECT_TRUE(SameLabels(labels, expected)) << context << "/forest";
          std::vector<Edge> forest;
          for (const Edge& e : slots) {
            if (e == kEmptySlot) continue;
            forest.push_back(e);
            const auto nbrs = g.neighbors(e.u);
            ASSERT_TRUE(std::find(nbrs.begin(), nbrs.end(), e.v) !=
                            nbrs.end() &&
                        pick_set.count(e))
                << context << ": slot " << e.u << "-" << e.v
                << " is not a sampled graph edge";
          }
          EXPECT_EQ(forest.size(), n - clusters) << context << "/forest";
          EXPECT_TRUE(
              SameLabels(SequentialComponents(EdgeList{n, forest}), expected))
              << context << "/forest";
        }
      }
    }
  }
  SetNumWorkers(original);
}

TEST(KOutSampling, LargerKImprovesCoverage) {
  const Graph g = GenerateErdosRenyi(4096, 16384, 7);
  double prev_coverage = 0.0;
  for (uint32_t k : {1u, 4u}) {
    KOutOptions options;
    options.variant = KOutVariant::kPure;
    options.k = k;
    std::vector<NodeId> labels = IdentityLabels(g.num_nodes());
    KOutSample(g, options, labels);
    const SamplingQuality q = MeasureSamplingQuality(g, labels);
    EXPECT_GE(q.coverage + 1e-9, prev_coverage) << "k=" << k;
    prev_coverage = q.coverage;
  }
  EXPECT_GT(prev_coverage, 0.5);
}

TEST(BfsSampling, CoversTheMassiveComponent) {
  const Graph g = GenerateRmat(4096, 32768, 9);
  BfsSampleOptions options;
  std::vector<NodeId> labels = IdentityLabels(g.num_nodes());
  BfsSample(g, options, labels);
  const SamplingQuality q = MeasureSamplingQuality(g, labels);
  const ComponentStats truth =
      ComputeComponentStats(SequentialComponents(g));
  // BFS finds one entire component: coverage equals the largest component.
  EXPECT_NEAR(q.coverage,
              static_cast<double>(truth.largest_component) /
                  static_cast<double>(g.num_nodes()),
              1e-9);
}

TEST(BfsSampling, FailsGracefullyWhenNoMassiveComponent) {
  // A graph of isolated vertices: every BFS covers ~nothing; labels must
  // remain the identity.
  const Graph g = BuildGraph(100, {{0, 1}});
  BfsSampleOptions options;
  options.coverage_threshold = 0.5;
  options.max_tries = 3;
  std::vector<NodeId> labels = IdentityLabels(g.num_nodes());
  BfsSample(g, options, labels);
  size_t non_identity = 0;
  for (NodeId v = 0; v < 100; ++v) non_identity += (labels[v] != v);
  EXPECT_LE(non_identity, 1u);  // at most the 0-1 pair collapsed
}

TEST(LddSampling, BetaControlsClusterCount) {
  const Graph g = GenerateGrid(40, 40);
  LddSampleOptions lo;
  lo.beta = 0.05;
  LddSampleOptions hi;
  hi.beta = 0.9;
  std::vector<NodeId> labels_lo = IdentityLabels(g.num_nodes());
  std::vector<NodeId> labels_hi = IdentityLabels(g.num_nodes());
  LddSample(g, lo, labels_lo);
  LddSample(g, hi, labels_hi);
  const SamplingQuality qlo = MeasureSamplingQuality(g, labels_lo);
  const SamplingQuality qhi = MeasureSamplingQuality(g, labels_hi);
  EXPECT_LT(qlo.num_clusters, qhi.num_clusters);
  EXPECT_LE(qlo.intercomponent_fraction, qhi.intercomponent_fraction + 0.05);
}

TEST(MeasureSamplingQuality, IdentityAndFullLabelings) {
  const Graph g = GeneratePath(10);
  const std::vector<NodeId> identity = IdentityLabels(10);
  const SamplingQuality qi = MeasureSamplingQuality(g, identity);
  EXPECT_DOUBLE_EQ(qi.coverage, 0.1);
  EXPECT_DOUBLE_EQ(qi.intercomponent_fraction, 1.0);
  EXPECT_EQ(qi.num_clusters, 10u);
  const std::vector<NodeId> full(10, 0);
  const SamplingQuality qf = MeasureSamplingQuality(g, full);
  EXPECT_DOUBLE_EQ(qf.coverage, 1.0);
  EXPECT_DOUBLE_EQ(qf.intercomponent_fraction, 0.0);

  // A sampled-looking labeling: a giant cluster labelled 0 and, on every
  // 16th vertex, small clusters of up to four members, each labelled by its
  // minimum. Checked against a sequential count on 1 and 4 workers.
  const size_t original = NumWorkers();
  const Graph rmat = GenerateRmat(1u << 16, 1u << 18, 17);
  const NodeId n = rmat.num_nodes();
  std::vector<NodeId> giant(n);
  for (NodeId v = 0; v < n; ++v) giant[v] = v % 16 == 0 ? v - v % 64 : 0;
  std::vector<NodeId> counts(n, 0);
  for (const NodeId label : giant) ++counts[label];
  EdgeId inter = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : rmat.neighbors(u)) inter += giant[u] != giant[v];
  }
  const NodeId clusters = static_cast<NodeId>(
      std::count_if(counts.begin(), counts.end(), [](NodeId c) { return c; }));
  const NodeId largest = *std::max_element(counts.begin(), counts.end());
  for (const size_t workers : {1u, 4u}) {
    SetNumWorkers(workers);
    const SamplingQuality q = MeasureSamplingQuality(rmat, giant);
    EXPECT_EQ(q.num_clusters, clusters) << "workers=" << workers;
    EXPECT_DOUBLE_EQ(q.coverage, static_cast<double>(largest) / n)
        << "workers=" << workers;
    EXPECT_DOUBLE_EQ(q.intercomponent_fraction,
                     static_cast<double>(inter) / rmat.num_arcs())
        << "workers=" << workers;
  }
  SetNumWorkers(original);
}

TEST(IdentifyFrequent, ExactFindsMajorityLabel) {
  const std::vector<NodeId> labels = {3, 3, 3, 3, 7, 7, 1};
  const FrequentResult r = IdentifyFrequentExact(labels);
  EXPECT_EQ(r.label, 3u);
  EXPECT_EQ(r.count, 4u);
  EXPECT_EQ(r.inspected, labels.size());
}

TEST(IdentifyFrequent, ExactTieBreaksBySmallestLabel) {
  const FrequentResult r = IdentifyFrequentExact({9, 9, 2, 2});
  EXPECT_EQ(r.label, 2u);
}

TEST(IdentifyFrequent, SampledAgreesOnDominantLabel) {
  std::vector<NodeId> labels(100000, 5);
  for (size_t i = 0; i < 1000; ++i) labels[i * 97 % labels.size()] = 9;
  const FrequentResult exact = IdentifyFrequentExact(labels);
  const FrequentResult sampled = IdentifyFrequentSampled(labels);
  EXPECT_EQ(exact.label, sampled.label);
  EXPECT_EQ(sampled.inspected, 1024u);
}

TEST(IdentifyFrequent, SmallInputsUseExactPath) {
  const std::vector<NodeId> labels = {1, 1, 0};
  const FrequentResult r = IdentifyFrequentSampled(labels, 1024);
  EXPECT_EQ(r.label, 1u);
  EXPECT_EQ(r.inspected, 3u);
}

TEST(IdentifyFrequent, EmptyLabels) {
  EXPECT_EQ(IdentifyFrequentExact({}).label, kInvalidNode);
  EXPECT_EQ(IdentifyFrequentSampled({}).label, kInvalidNode);
}

TEST(SkipMask, MarksFrequentVertices) {
  const std::vector<NodeId> labels = {0, 0, 2, 2, 0};
  const std::vector<uint8_t> skip = MakeSkipMask(labels, 0);
  EXPECT_EQ(skip, (std::vector<uint8_t>{1, 1, 0, 0, 1}));
  EXPECT_TRUE(MakeSkipMask(labels, kInvalidNode).empty());
}

TEST(ApplyArcRule, EachEdgeAppliedExactlyOnce) {
  // For every (skip-u, skip-v) combination, exactly one orientation of a
  // non-internal edge is applied.
  for (int su = 0; su <= 1; ++su) {
    for (int sv = 0; sv <= 1; ++sv) {
      std::vector<uint8_t> skip = {static_cast<uint8_t>(su),
                                   static_cast<uint8_t>(sv)};
      const int applied =
          (ApplyArc(0, 1, skip) ? 1 : 0) + (ApplyArc(1, 0, skip) ? 1 : 0);
      if (su && sv) {
        EXPECT_EQ(applied, 0) << su << sv;
      } else {
        EXPECT_EQ(applied, 1) << su << sv;
      }
    }
  }
}

}  // namespace
}  // namespace connectit
