// Randomized differential testing for fully dynamic connectivity
// (Connectivity::Erase + Insert), plus the Erase edge-case suite.
//
// The harness generates seeded random interleavings of Insert / Erase /
// query batches against one Connectivity index and checks every answer —
// the full labeling after each batch, and each query batched with an
// Insert or an Erase — against a sequential static recomputation over the
// tracked edge set (SequentialComponents, the repo's ground-truth oracle).
// The sweep covers every streaming variant × the csr/coo/sharded
// representations.
//
// Seeds: two fixed TESTs make CI deterministic; the TimeVaryingSeed TEST
// draws a fresh seed each run (override with CONNECTIT_DIFF_SEED=<n>) and
// prints it, so a CI failure names the exact seed to reproduce with.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algo/verify.h"
#include "src/core/connectivity_index.h"
#include "src/core/dynamic_forest.h"
#include "src/core/edge_key_set.h"
#include "src/core/registry.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/graph/graph_handle.h"
#include "src/parallel/thread_pool.h"
#include "src/stats/counters.h"

namespace connectit {
namespace {

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

std::pair<NodeId, NodeId> Canon(const Edge& e) {
  return {std::min(e.u, e.v), std::max(e.u, e.v)};
}

EdgeList ToEdgeList(NodeId n, const EdgeSet& present) {
  EdgeList out;
  out.num_nodes = n;
  out.edges.reserve(present.size());
  for (const auto& [u, v] : present) out.edges.push_back({u, v});
  return out;
}

// A uniformly random currently-present edge (the erase generator's main
// diet); kInvalidNode pair when empty.
Edge SamplePresent(const EdgeSet& present, std::mt19937_64& rng) {
  if (present.empty()) return {kInvalidNode, kInvalidNode};
  auto it = present.begin();
  std::advance(it, rng() % present.size());
  return {it->first, it->second};
}

struct HarnessConfig {
  NodeId n = 160;
  size_t base_edges = 220;   // static bulk load before streaming
  size_t min_ops = 1000;     // inserts + erases + queries, per run
  size_t inserts_per_batch = 12;
  size_t erases_per_batch = 8;
  size_t queries_per_batch = 16;
};

// Expects every answer to queries[q] to be oracle[u] == oracle[v].
void ExpectAnswers(const std::vector<Edge>& queries,
                   const std::vector<uint8_t>& answers,
                   const std::vector<NodeId>& oracle, const std::string& what) {
  ASSERT_EQ(answers.size(), queries.size()) << what;
  for (size_t q = 0; q < queries.size(); ++q) {
    const bool expected = oracle[queries[q].u] == oracle[queries[q].v];
    EXPECT_EQ(answers[q] != 0, expected)
        << what << " query " << q << " (" << queries[q].u << ","
        << queries[q].v << ") disagrees with the oracle";
  }
}

// One full differential run: Build(base) -> Stream -> alternating
// Insert/Erase batches, each with inline queries, oracle-checked after
// every batch. Returns the number of updates and Erase queries exercised.
size_t RunDifferential(const Variant& variant, GraphRepresentation repr,
                       uint64_t seed, const HarnessConfig& cfg) {
  std::mt19937_64 rng(seed);
  const NodeId n = cfg.n;
  auto random_vertex = [&] { return static_cast<NodeId>(rng() % n); };
  // Insert queries draw from their own stream, so the updates and Erase
  // queries of a seed stay the same with or without them.
  std::mt19937_64 insert_query_rng(~seed);
  auto random_queries = [&](std::mt19937_64& gen) {
    std::vector<Edge> queries;
    for (size_t i = 0; i < cfg.queries_per_batch; ++i) {
      queries.push_back({static_cast<NodeId>(gen() % n),
                         static_cast<NodeId>(gen() % n)});
    }
    return queries;
  };

  EdgeSet present;
  EdgeList base;
  base.num_nodes = n;
  for (size_t i = 0; i < cfg.base_edges; ++i) {
    const Edge e = {random_vertex(), random_vertex()};
    base.edges.push_back(e);
    if (e.u != e.v) present.insert(Canon(e));
  }

  Connectivity index(Connectivity::Spec()
                         .Algorithm(variant.descriptor)
                         .Representation(repr)
                         .Shards(3));
  index.Build(GraphHandle(base)).Stream();

  size_t ops = 0;
  size_t batch_no = 0;
  while (ops < cfg.min_ops) {
    ++batch_no;
    // Insert batch: mostly fresh random pairs, salted with duplicates of
    // present edges and the occasional self-loop.
    std::vector<Edge> inserts;
    for (size_t i = 0; i < cfg.inserts_per_batch; ++i) {
      Edge e = {random_vertex(), random_vertex()};
      if (rng() % 8 == 0) e = SamplePresent(present, rng);
      if (rng() % 16 == 0) e.v = e.u;  // self-loop: must be a no-op
      if (e.u == kInvalidNode) continue;
      inserts.push_back(e);
      if (e.u != e.v) present.insert(Canon(e));
    }
    // The queries ride with the batch and must see all of it: every
    // variant, whatever its batch type, answers after the updates.
    const std::vector<Edge> insert_queries = random_queries(insert_query_rng);
    const std::vector<uint8_t> insert_answers =
        index.Insert(inserts, insert_queries);
    ops += inserts.size();
    const std::string where = variant.name + " on " + ToString(repr) +
                              ", seed " + std::to_string(seed) + ", batch " +
                              std::to_string(batch_no);
    ExpectAnswers(insert_queries, insert_answers,
                  SequentialComponents(ToEdgeList(n, present)),
                  where + ": Insert");

    // Erase batch: mostly present edges, salted with absent pairs (misses)
    // and self-loops; queries ride along and are checked exactly against
    // the post-batch oracle.
    std::vector<Edge> erases;
    for (size_t i = 0; i < cfg.erases_per_batch; ++i) {
      Edge e = SamplePresent(present, rng);
      if (rng() % 6 == 0) e = {random_vertex(), random_vertex()};
      if (e.u == kInvalidNode) continue;
      erases.push_back(e);
      if (e.u != e.v) present.erase(Canon(e));
    }
    const std::vector<Edge> queries = random_queries(rng);
    const std::vector<uint8_t> answers = index.Erase(erases, queries);
    ops += erases.size() + queries.size();

    // Oracle: full static recomputation over the tracked edge set.
    const std::vector<NodeId> expected =
        SequentialComponents(ToEdgeList(n, present));
    const std::vector<NodeId> got = CanonicalizeLabels(index.Labels());
    EXPECT_EQ(got, expected) << where << ": labeling diverged from the oracle";
    ExpectAnswers(queries, answers, expected, where + ": Erase");
    if (::testing::Test::HasFailure()) break;
  }
  return ops;
}

// Every streaming variant × every adjacency-bearing representation, one
// seeded run each with >= 1000 mixed operations (the acceptance bar).
void SweepAllVariants(uint64_t seed) {
  const HarnessConfig cfg;
  for (const Variant* v : StreamingVariants()) {
    for (const GraphRepresentation repr :
         {GraphRepresentation::kCsr, GraphRepresentation::kCoo,
          GraphRepresentation::kSharded}) {
      const size_t ops = RunDifferential(*v, repr, seed, cfg);
      EXPECT_GE(ops, cfg.min_ops);
      if (::testing::Test::HasFailure()) return;  // first divergence is enough
    }
  }
}

TEST(DynamicConnectivityDifferential, FixedSeedA) { SweepAllVariants(12345); }

TEST(DynamicConnectivityDifferential, FixedSeedB) { SweepAllVariants(987654321); }

// Fresh randomness every run (CI logs the seed on failure via the assert
// messages and the line printed here). CONNECTIT_DIFF_SEED pins it for
// reproduction. The random-seed run is deeper but narrower than the fixed
// sweeps: default variant, all representations, 4x the operation count.
TEST(DynamicConnectivityDifferential, TimeVaryingSeed) {
  uint64_t seed;
  if (const char* env = std::getenv("CONNECTIT_DIFF_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  } else {
    seed = std::random_device{}();
  }
  std::printf("[ SEED ] CONNECTIT_DIFF_SEED=%llu (rerun with this env var "
              "to reproduce)\n",
              static_cast<unsigned long long>(seed));
  ::testing::Test::RecordProperty("connectit_diff_seed",
                                  std::to_string(seed));
  HarnessConfig cfg;
  cfg.min_ops = 4000;
  for (const GraphRepresentation repr :
       {GraphRepresentation::kCsr, GraphRepresentation::kCoo,
        GraphRepresentation::kSharded}) {
    RunDifferential(DefaultVariant(), repr, seed, cfg);
    if (::testing::Test::HasFailure()) return;
  }
}

// ---- Erase edge-case suite ----

class EraseEdgeCaseTest : public ::testing::Test {
 protected:
  // A path 0-1-2 plus an isolated vertex 3, cold-streamed.
  Connectivity MakePath() {
    Connectivity index;
    index.Stream(4);
    index.Insert({{0, 1}, {1, 2}});
    return index;
  }
};

TEST_F(EraseEdgeCaseTest, NonExistentEdgeIsANoOp) {
  Connectivity index = MakePath();
  const stats::ServingSnapshot before = stats::ReadServing();
  index.Erase({{0, 2}, {1, 3}});  // neither edge exists
  const stats::ServingSnapshot after = stats::ReadServing();
  EXPECT_EQ(after.erase_batches - before.erase_batches, 1u);
  EXPECT_EQ(after.erase_misses - before.erase_misses, 2u);
  EXPECT_EQ(after.edges_erased - before.edges_erased, 0u);
  EXPECT_TRUE(index.SameComponent(0, 2));
  EXPECT_EQ(index.NumComponents(), 2u);  // {0,1,2} and {3}
}

TEST_F(EraseEdgeCaseTest, DuplicateEdgesWithinOneBatch) {
  Connectivity index = MakePath();
  const stats::ServingSnapshot before = stats::ReadServing();
  // The first occurrence deletes; the duplicate (in both orientations)
  // must count as a miss, not underflow the structure.
  index.Erase({{0, 1}, {0, 1}, {1, 0}});
  const stats::ServingSnapshot after = stats::ReadServing();
  EXPECT_EQ(after.edges_erased - before.edges_erased, 1u);
  EXPECT_EQ(after.erase_misses - before.erase_misses, 2u);
  EXPECT_FALSE(index.SameComponent(0, 1));
  EXPECT_EQ(index.NumComponents(), 3u);  // {0}, {1,2}, {3}
}

TEST_F(EraseEdgeCaseTest, EraseThenReinsertAcrossBatches) {
  Connectivity index = MakePath();
  index.Erase({{1, 2}});
  EXPECT_FALSE(index.SameComponent(0, 2));
  index.Insert({{1, 2}});
  EXPECT_TRUE(index.SameComponent(0, 2));
  index.Erase({{1, 2}});
  EXPECT_FALSE(index.SameComponent(0, 2));
  EXPECT_EQ(index.NumComponents(), 3u);
}

TEST_F(EraseEdgeCaseTest, SelfLoopsAreNoOps) {
  Connectivity index = MakePath();
  index.Insert({{2, 2}});
  EXPECT_EQ(index.NumComponents(), 2u);
  const stats::ServingSnapshot before = stats::ReadServing();
  index.Erase({{2, 2}});
  const stats::ServingSnapshot after = stats::ReadServing();
  EXPECT_EQ(after.edges_erased - before.edges_erased, 0u);
  EXPECT_EQ(after.erase_misses - before.erase_misses, 1u);
  EXPECT_EQ(index.NumComponents(), 2u);
  EXPECT_TRUE(index.SameComponent(0, 2));
}

TEST_F(EraseEdgeCaseTest, DeletingTheLastEdgeSplitsTheComponent) {
  Connectivity index;
  index.Stream(4);
  index.Insert({{0, 1}, {2, 3}});
  ASSERT_EQ(index.NumComponents(), 2u);
  const stats::ServingSnapshot before = stats::ReadServing();
  index.Erase({{2, 3}});
  const stats::ServingSnapshot after = stats::ReadServing();
  EXPECT_EQ(index.NumComponents(), 3u);  // {0,1}, {2}, {3}
  EXPECT_FALSE(index.SameComponent(2, 3));
  EXPECT_TRUE(index.SameComponent(0, 1));
  EXPECT_EQ(after.forest_edge_hits - before.forest_edge_hits, 1u);
  EXPECT_EQ(after.components_split - before.components_split, 1u);
}

TEST_F(EraseEdgeCaseTest, EmptyEraseBatch) {
  Connectivity index = MakePath();
  const uint64_t version_before = index.Acquire().version();
  const std::vector<uint8_t> answers = index.Erase({}, {{0, 2}, {0, 3}});
  EXPECT_EQ(answers, (std::vector<uint8_t>{1, 0}));
  EXPECT_EQ(index.NumComponents(), 2u);
  // An empty batch still participates in the serving lifecycle: it
  // publishes, like an empty Insert.
  EXPECT_GT(index.Acquire().version(), version_before);
}

// The acceptance criterion in its purest form: deleting a forest edge
// whose component has a surviving replacement must not change a single
// query answer — the labeling is bit-for-bit identical.
TEST(EraseReplacement, SurvivingReplacementKeepsAnswers) {
  Connectivity index;
  index.Stream(5);
  // Triangle 0-1-2 plus pendant 3; vertex 4 isolated. Whichever two
  // triangle edges the forest kept, deleting either leaves a replacement.
  index.Insert({{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const std::vector<NodeId> before = index.Labels();
  const stats::ServingSnapshot s0 = stats::ReadServing();
  index.Erase({{0, 1}});
  const stats::ServingSnapshot s1 = stats::ReadServing();
  EXPECT_EQ(index.Labels(), before);
  EXPECT_EQ(s1.components_split - s0.components_split, 0u);
  // Restore the cycle and delete a different edge: as long as the
  // triangle is a cycle, any single deletion has a surviving replacement
  // (whether the victim was a forest edge or not) and keeps all answers.
  index.Insert({{0, 1}});
  EXPECT_EQ(index.Labels(), before);
  const stats::ServingSnapshot s2 = stats::ReadServing();
  index.Erase({{1, 2}});
  const stats::ServingSnapshot s3 = stats::ReadServing();
  EXPECT_EQ(index.Labels(), before);
  EXPECT_EQ(s3.components_split - s2.components_split, 0u);
  EXPECT_TRUE(index.SameComponent(0, 3));
  // Now only the tree {0-1, 0-2, 2-3} remains: deleting 0-2 must split
  // {0,1} from {2,3}.
  index.Erase({{0, 2}});
  EXPECT_FALSE(index.SameComponent(0, 2));
  EXPECT_TRUE(index.SameComponent(0, 1));
  EXPECT_TRUE(index.SameComponent(2, 3));
}

// A split relabels one side only, and labels stay min-rooted: when the
// side that splits off holds the old minimum, the rest takes its own.
TEST(EraseReplacement, SplitKeepsLabelsMinRooted) {
  Connectivity index;
  index.Stream(9);
  index.Insert({{0, 5}, {5, 6}, {6, 7}, {7, 8}});
  index.Erase({{0, 5}});
  EXPECT_EQ(index.Labels(), (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 5, 5, 5}));
  index.Erase({{7, 8}});
  EXPECT_EQ(index.Labels(), (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 5, 5, 8}));
  // The middle edge of a path with a chord: the chord replaces it.
  index.Insert({{7, 8}, {5, 7}});
  const std::vector<NodeId> joined = index.Labels();
  index.Erase({{6, 7}});
  EXPECT_EQ(index.Labels(), joined);
  EXPECT_EQ(index.NumComponents(), 6u);
}

// Erase also works after a warm Build -> Stream handoff (the forest arms
// from the built graph via run_forest, then replays the insert journal).
TEST(EraseWarmStart, ArmsFromBuiltGraphAndJournal) {
  EdgeList base;
  base.num_nodes = 6;
  base.edges = {{0, 1}, {1, 2}, {3, 4}};
  Connectivity index;
  index.Build(GraphHandle(base)).Stream();
  index.Insert({{4, 5}});         // journaled until the first Erase
  index.Erase({{1, 2}});          // arms: run_forest(base) + journal replay
  EXPECT_FALSE(index.SameComponent(0, 2));
  EXPECT_TRUE(index.SameComponent(3, 5));  // journal edge survived arming
  index.Erase({{4, 5}});
  EXPECT_FALSE(index.SameComponent(3, 5));
  const std::vector<NodeId> expected = SequentialComponents(
      ToEdgeList(6, EdgeSet{{0, 1}, {3, 4}}));
  EXPECT_EQ(CanonicalizeLabels(index.Labels()), expected);
}

// The forest's open-addressing edge sets agree with std::set through
// growth, tombstone reuse and tombstone-clearing rehashes.
TEST(EdgeKeySet, MatchesStdSetUnderChurn) {
  std::mt19937_64 rng(7);
  EdgeKeySet keys;
  std::set<uint64_t> expected;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 5000; ++i) {
      const uint64_t lo = rng() % 300;
      const uint64_t key = lo << 32 | (lo + 1 + rng() % 300);
      if (rng() % 3 == 0) {
        ASSERT_EQ(keys.Erase(key), expected.erase(key) == 1);
      } else {
        ASSERT_EQ(keys.Insert(key), expected.insert(key).second);
      }
    }
    const uint64_t cut = rng() % 300;
    while (!expected.empty() && *expected.begin() < cut << 32) {
      ASSERT_TRUE(keys.Erase(*expected.begin()));
      expected.erase(expected.begin());
    }
    ASSERT_EQ(keys.size(), expected.size());
    for (uint64_t lo = 0; lo < 300; ++lo) {
      for (uint64_t hi = lo + 1; hi <= lo + 300; hi += 7) {
        const uint64_t key = lo << 32 | hi;
        ASSERT_EQ(keys.Contains(key), expected.count(key) == 1);
      }
    }
  }
}

// A canonical key (lo < hi) per index, spread over the hash.
uint64_t TestKey(uint64_t i) { return i << 32 | (i + 1); }

// Inserts alone double the table when a key would fill more than 70% of
// it: the smallest power of two >= 16 slots with 10 * keys <= 7 * slots.
TEST(EdgeKeySet, InsertsDoubleTheTableAtSeventyPercent) {
  EdgeKeySet keys;
  EXPECT_EQ(keys.slot_count(), 0u);
  size_t expected = 16;
  for (uint64_t i = 0; i < 200000; ++i) {
    ASSERT_TRUE(keys.Insert(TestKey(i)));
    if (10 * keys.size() > 7 * expected) expected *= 2;
    ASSERT_EQ(keys.slot_count(), expected) << "at " << keys.size() << " keys";
    switch (keys.size()) {
      case 11: ASSERT_EQ(keys.slot_count(), 16u); break;
      case 12: ASSERT_EQ(keys.slot_count(), 32u); break;
      case 23: ASSERT_EQ(keys.slot_count(), 64u); break;
      case 183500: ASSERT_EQ(keys.slot_count(), size_t{1} << 18); break;
      case 183501: ASSERT_EQ(keys.slot_count(), size_t{1} << 19); break;
    }
  }
}

// Reserve(k) goes in one step to the slot count k inserts grow the table
// to, and those k inserts then leave it there.
TEST(EdgeKeySet, ReserveMatchesGrowthAndHoldsItsKeys) {
  for (const size_t k : {0, 1, 11, 12, 22, 23, 1000, 183500, 183501}) {
    EdgeKeySet grown;
    for (uint64_t i = 0; i < k; ++i) grown.Insert(TestKey(i));
    EdgeKeySet reserved;
    reserved.Reserve(k);
    const size_t slots = reserved.slot_count();
    EXPECT_EQ(slots, grown.slot_count()) << k << " keys";
    for (uint64_t i = 0; i < k; ++i) reserved.Insert(TestKey(i));
    EXPECT_EQ(reserved.slot_count(), slots) << k << " keys";
    EXPECT_EQ(reserved.size(), k);
  }
}

// Erasing one key and inserting another keeps the live size fixed while
// tombstones pile up; their rehashes run in place. At most 35% live the
// table never grows; above it, the first rehash doubles it once and the
// table then stays put.
TEST(EdgeKeySet, ChurnAtAFixedLiveSizeDoesNotGrowTheTable) {
  for (const bool reserved : {true, false}) {
    EdgeKeySet keys;
    if (reserved) keys.Reserve(2800);  // 4096 slots: 1000 keys are 24%
    for (uint64_t i = 0; i < 1000; ++i) keys.Insert(TestKey(i));
    size_t slots = keys.slot_count();
    ASSERT_EQ(slots, reserved ? 4096u : 2048u);
    for (uint64_t i = 1000; i < 60000; ++i) {
      ASSERT_TRUE(keys.Erase(TestKey(i - 1000)));
      ASSERT_TRUE(keys.Insert(TestKey(i)));
      ASSERT_EQ(keys.size(), 1000u);
      if (!reserved && keys.slot_count() != slots) {
        // 1000 keys are 49% of 2048 slots: one doubling, then no more.
        ASSERT_EQ(slots, 2048u);
        slots = keys.slot_count();
        ASSERT_EQ(slots, 4096u);
      }
      ASSERT_EQ(keys.slot_count(), slots) << "after churn step " << i;
    }
    for (uint64_t i = 59000; i < 60000; ++i) {
      ASSERT_TRUE(keys.Contains(TestKey(i)));
    }
  }
}

// ---- Bulk arming and InsertBatch vs the edge-at-a-time build ----

// The armed state DynamicForest::AdoptGraph must reproduce, built one edge
// at a time the way the forest armed before the bulk load: for a COO list,
// the edge-at-a-time loop (first occurrence of each edge in input order,
// self-loops dropped, one arc appended to each endpoint's list); for an
// adjacency handle, each vertex's neighbours in the representation's order
// without self-loops, one key per u < v arc. Lists grow by push_back, so
// their capacities are the ones the armed lists must match. The forest
// edges are run_forest's, and every label is its component's minimum.
struct ReferenceArming {
  std::vector<std::vector<NodeId>> adj;
  EdgeSet edges;
  EdgeSet forest;
  std::vector<NodeId> labels;
};

ReferenceArming ArmOneEdgeAtATime(const GraphHandle& handle,
                                  const SpanningForestResult& forest) {
  ReferenceArming ref;
  const NodeId n = handle.num_nodes();
  ref.adj.resize(n);
  handle.Visit([&](const auto& g) {
    using G = std::decay_t<decltype(g)>;
    if constexpr (std::is_same_v<G, EdgeList>) {
      for (const Edge& e : g.edges) {
        if (e.u == e.v || !ref.edges.insert(Canon(e)).second) continue;
        ref.adj[e.u].push_back(e.v);
        ref.adj[e.v].push_back(e.u);
      }
    } else {
      for (NodeId u = 0; u < n; ++u) {
        g.MapNeighbors(u, [&](NodeId v) {
          if (u == v) return;
          ref.adj[u].push_back(v);
          if (u < v) ref.edges.insert({u, v});
        });
      }
    }
  });
  for (const Edge& e : forest.edges) ref.forest.insert(Canon(e));
  ref.labels = CanonicalizeLabels(forest.labels);
  return ref;
}

// InsertBatch's rule applied one edge at a time, in batch order: a new
// edge appends one arc to each endpoint's list, and one that joins two
// components becomes a forest edge, the smaller label winning.
void InsertOneEdgeAtATime(ReferenceArming& ref,
                          const std::vector<Edge>& batch) {
  for (const Edge& e : batch) {
    if (e.u == e.v || !ref.edges.insert(Canon(e)).second) continue;
    ref.adj[e.u].push_back(e.v);
    ref.adj[e.v].push_back(e.u);
    const NodeId a = ref.labels[e.u];
    const NodeId b = ref.labels[e.v];
    if (a == b) continue;
    ref.forest.insert(Canon(e));
    const NodeId keep = std::min(a, b);
    const NodeId drop = std::max(a, b);
    for (NodeId& label : ref.labels) {
      if (label == drop) label = keep;
    }
  }
}

// Lists (order and capacity), edge and forest membership, and labels.
void ExpectSameState(DynamicForest& armed, const ReferenceArming& ref,
                     const std::string& what) {
  const NodeId n = armed.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(armed.Neighbors(v), ref.adj[v]) << what << ": list of " << v;
    ASSERT_EQ(armed.Neighbors(v).capacity(), ref.adj[v].capacity())
        << what << ": capacity of " << v;
  }
  EXPECT_EQ(armed.num_edges(), ref.edges.size()) << what;
  EXPECT_EQ(armed.num_forest_edges(), ref.forest.size()) << what;
  for (const auto& [u, v] : ref.forest) {
    ASSERT_TRUE(armed.IsForestEdge(u, v)) << what;
    ASSERT_TRUE(armed.IsForestEdge(v, u)) << what;
  }
  for (const auto& [u, v] : ref.edges) {
    ASSERT_TRUE(armed.HasEdge(u, v)) << what;
    ASSERT_TRUE(armed.HasEdge(v, u)) << what;
    ASSERT_EQ(armed.IsForestEdge(u, v), ref.forest.count({u, v}) == 1)
        << what << ": edge " << u << "-" << v;
  }
  std::mt19937_64 rng(n);
  for (int i = 0; i < 20000; ++i) {
    const NodeId u = static_cast<NodeId>(rng() % n);
    const NodeId v = static_cast<NodeId>(rng() % n);
    ASSERT_EQ(armed.HasEdge(u, v), u != v && ref.edges.count(Canon({u, v})))
        << what;
    ASSERT_EQ(armed.IsForestEdge(u, v),
              u != v && ref.forest.count(Canon({u, v})))
        << what;
  }
  EXPECT_EQ(armed.Labels(), ref.labels) << what;
}

// An Insert batch of fresh pairs (many merge two components), pairs at a
// few hub vertices (so one prefetch window appends several arcs to one
// list), repeats and reversed repeats of present and earlier batch edges,
// and self-loops.
std::vector<Edge> MixedInsertBatch(const ReferenceArming& ref,
                                   std::mt19937_64& rng) {
  const NodeId n = static_cast<NodeId>(ref.adj.size());
  const auto vertex = [&] { return static_cast<NodeId>(rng() % n); };
  std::vector<Edge> batch;
  while (batch.size() < 500) {
    const NodeId x = vertex();
    switch (rng() % 8) {
      case 0:
        batch.push_back({x, x});
        break;
      case 1:
        if (!ref.adj[x].empty()) {
          batch.push_back({x, ref.adj[x][rng() % ref.adj[x].size()]});
        }
        break;
      case 2:
      case 3:
        if (!batch.empty()) {
          const size_t back = rng() % std::min<size_t>(batch.size(), 16);
          const Edge e = batch[batch.size() - 1 - back];
          batch.push_back(rng() % 2 == 0 ? e : Edge{e.v, e.u});
        }
        break;
      case 4:
      case 5:
        batch.push_back({static_cast<NodeId>(x % 4), vertex()});
        break;
      default:
        batch.push_back({x, vertex()});
    }
  }
  return batch;
}

// Arms a forest from `handle` and the default variant's run_forest, and
// compares it with the one-edge-at-a-time reference fed the same forest;
// then sends the same mixed batches through InsertBatch and the
// reference's loop and compares again after each.
void ExpectBulkArmingMatchesReference(const GraphHandle& handle,
                                      const std::string& what) {
  const NodeId n = handle.num_nodes();
  const SpanningForestResult forest =
      DefaultVariant().run_forest(handle, SamplingConfig());
  DynamicForest armed(n);
  armed.AdoptGraph(handle, forest);
  ReferenceArming ref = ArmOneEdgeAtATime(handle, forest);
  ExpectSameState(armed, ref, what + ", armed");
  std::mt19937_64 rng(n + 1);
  for (int b = 0; b < 4 && !::testing::Test::HasFatalFailure(); ++b) {
    const std::vector<Edge> batch = MixedInsertBatch(ref, rng);
    armed.InsertBatch(batch);
    InsertOneEdgeAtATime(ref, batch);
    ExpectSameState(armed, ref, what + ", Insert batch " + std::to_string(b));
  }
}

// An RMAT list salted with self-loops, repeats and reversed repeats, each
// at a random position, in every representation, at pool sizes 1 and 4;
// then four mixed InsertBatch calls on each armed forest.
TEST(BulkArming, MatchesTheEdgeAtATimeBuildInEveryRepresentation) {
  const NodeId n = 3000;
  const EdgeList rmat = GenerateRmatEdges(n, 12000, /*seed=*/21);
  std::mt19937_64 rng(21);
  EdgeList list;
  list.num_nodes = n;
  for (const Edge& e : rmat.edges) {
    list.edges.push_back(e);
    switch (rng() % 8) {
      case 0: {
        const NodeId x = static_cast<NodeId>(rng() % n);
        list.edges.push_back({x, x});
        break;
      }
      case 1:
        list.edges.push_back(list.edges[rng() % list.edges.size()]);
        break;
      case 2: {
        const Edge r = list.edges[rng() % list.edges.size()];
        list.edges.push_back({r.v, r.u});
        break;
      }
    }
  }
  // Self-loops survive into the adjacency handles, so their filter runs too.
  BuildOptions keep_loops;
  keep_loops.remove_self_loops = false;
  const Graph csr = BuildGraph(list, keep_loops);
  const std::vector<std::pair<std::string, GraphHandle>> handles = {
      {"coo", GraphHandle(list)},
      {"csr", GraphHandle(csr)},
      {"sharded", GraphHandle::Shard(csr, 3)},
      {"compressed", GraphHandle::Compress(csr)},
      {"mapped", GraphHandle::MapTempOrDie(csr)},
  };
  for (const size_t workers : {1, 4}) {
    SetNumWorkers(workers);
    for (const auto& [name, handle] : handles) {
      ExpectBulkArmingMatchesReference(
          handle, name + " at " + std::to_string(workers) + " workers");
      if (::testing::Test::HasFatalFailure()) break;
    }
  }
  SetNumWorkers(0);
}

}  // namespace
}  // namespace connectit
