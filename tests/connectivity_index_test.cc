// Serving-façade parity: for every registered variant × sampling scheme ×
// graph representation, connectit::Connectivity must produce exactly the
// results of the direct registry calls it wraps — Build vs Variant::run,
// Stream/Insert vs make_streaming(StreamingSeed)/ProcessBatch — and its
// query methods must serve the same partition. Plus Spec semantics
// (builder, Auto, representation conversion), lifecycle guards, re-Stream()
// after Inserts and Erases, and concurrent reads during ingest.

#include <atomic>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/algo/verify.h"
#include "src/core/connectivity_index.h"
#include "src/core/components.h"
#include "src/core/registry.h"
#include "src/graph/builder.h"
#include "src/graph/compressed.h"
#include "src/graph/generators.h"
#include "src/graph/graph_handle.h"
#include "src/graph/sharded.h"
#include "src/stats/counters.h"

namespace connectit {
namespace {

constexpr size_t kShards = 3;  // non-trivial boundaries on any runner

// One multi-component graph encoded once in all four representations.
struct Reps {
  Graph csr;
  CompressedGraph compressed;
  EdgeList coo;
  ShardedGraph sharded;
};

const Reps& TestReps() {
  static const Reps* reps = [] {
    auto* out = new Reps();
    out->csr = GenerateComponentMixture(800, 6, /*seed=*/29);
    out->compressed = CompressedGraph::Encode(out->csr);
    out->coo = ExtractEdges(out->csr);
    out->sharded = ShardedGraph::Partition(out->csr, kShards);
    return out;
  }();
  return *reps;
}

const std::vector<GraphRepresentation>& AllReprs() {
  static const std::vector<GraphRepresentation> reprs = {
      GraphRepresentation::kCsr, GraphRepresentation::kCompressed,
      GraphRepresentation::kCoo, GraphRepresentation::kSharded};
  return reprs;
}

GraphHandle HandleFor(GraphRepresentation repr) {
  const Reps& reps = TestReps();
  switch (repr) {
    case GraphRepresentation::kCsr: return GraphHandle(reps.csr);
    case GraphRepresentation::kCompressed:
      return GraphHandle(reps.compressed);
    case GraphRepresentation::kCoo: return GraphHandle(reps.coo);
    case GraphRepresentation::kSharded: return GraphHandle(reps.sharded);
  }
  return GraphHandle();
}

const std::vector<SamplingOption> kSamplings = {
    SamplingOption::kNone, SamplingOption::kKOut, SamplingOption::kBfs,
    SamplingOption::kLdd};

// The acceptance sweep: Build on every variant × sampling × representation
// equals the direct registry run, and the query surface serves that
// labeling.
TEST(ConnectivityParity, BuildMatchesDirectRegistryRunEverywhere) {
  for (const Variant& v : AllVariants()) {
    for (const SamplingOption s : kSamplings) {
      SamplingConfig config;
      config.option = s;
      for (const GraphRepresentation repr : AllReprs()) {
        const GraphHandle handle = HandleFor(repr);
        Connectivity index(
            Connectivity::Spec().Algorithm(v.descriptor).Sampling(config));
        index.Build(handle);
        const std::vector<NodeId> direct =
            CanonicalizeLabels(v.run(handle, config));
        const std::vector<NodeId> facade = CanonicalizeLabels(index.Labels());
        ASSERT_EQ(facade, direct)
            << "variant=" << v.name << " sampling=" << ToString(s)
            << " repr=" << ToString(repr);
        // Query surface: served answers are the served labeling.
        EXPECT_EQ(index.NumComponents(), CountComponents(index.Labels()));
        EXPECT_EQ(index.Component(0), index.Labels()[0]);
        EXPECT_EQ(index.SameComponent(0, 1), facade[0] == facade[1]);
        EXPECT_EQ(index.num_nodes(), handle.num_nodes());
        EXPECT_EQ(index.representation(), repr);
      }
    }
  }
}

// The streaming half of the acceptance sweep: Build + Stream + Insert over
// batches equals make_streaming(FromStatic) + ProcessBatch over the same
// batches, equals a full static run over all edges — on every streaming
// variant × sampling × representation.
TEST(ConnectivityParity, StreamMatchesDirectSeededStreamingEverywhere) {
  const Reps& reps = TestReps();
  const EdgeList& all = reps.coo;
  const size_t held = all.size() / 5;
  EdgeList base;
  base.num_nodes = all.num_nodes;
  base.edges.assign(all.edges.begin(), all.edges.end() - held);
  const Graph base_csr = BuildGraph(base);
  const CompressedGraph base_compressed = CompressedGraph::Encode(base_csr);
  const ShardedGraph base_sharded = ShardedGraph::Partition(base_csr, kShards);
  auto base_handle = [&](GraphRepresentation repr) {
    switch (repr) {
      case GraphRepresentation::kCsr: return GraphHandle(base_csr);
      case GraphRepresentation::kCompressed:
        return GraphHandle(base_compressed);
      case GraphRepresentation::kCoo: return GraphHandle(base);
      case GraphRepresentation::kSharded: return GraphHandle(base_sharded);
    }
    return GraphHandle();
  };
  // Two tail batches.
  const size_t tail_start = all.size() - held;
  const std::vector<Edge> batch1(all.edges.begin() + tail_start,
                                 all.edges.begin() + tail_start + held / 2);
  const std::vector<Edge> batch2(all.edges.begin() + tail_start + held / 2,
                                 all.edges.end());
  const std::vector<Edge> queries = {{0, 1}, {2, 700}, {10, 11}};

  for (const Variant* v : StreamingVariants()) {
    for (const SamplingOption s :
         {SamplingOption::kNone, SamplingOption::kKOut}) {
      SamplingConfig config;
      config.option = s;
      for (const GraphRepresentation repr : AllReprs()) {
        const GraphHandle handle = base_handle(repr);
        // Direct registry lifecycle.
        auto direct =
            v->make_streaming(StreamingSeed::FromStatic(handle, config));
        direct->ProcessBatch(batch1, {});
        direct->ProcessBatch(batch2, {});
        const std::vector<uint8_t> direct_answers =
            direct->ProcessBatch({}, queries);
        // Façade lifecycle.
        Connectivity index(
            Connectivity::Spec().Algorithm(v->descriptor).Sampling(config));
        index.Build(handle).Stream();
        index.Insert(batch1);
        index.Insert(batch2);
        const std::vector<uint8_t> facade_answers = index.Insert({}, queries);
        EXPECT_EQ(facade_answers, direct_answers)
            << "variant=" << v->name << " sampling=" << ToString(s)
            << " repr=" << ToString(repr);
        const std::vector<NodeId> facade_labels =
            CanonicalizeLabels(index.Labels());
        ASSERT_EQ(facade_labels, CanonicalizeLabels(direct->Labels()))
            << "variant=" << v->name << " sampling=" << ToString(s)
            << " repr=" << ToString(repr);
        // And both equal the full static run over base + tail.
        ASSERT_EQ(facade_labels,
                  CanonicalizeLabels(v->run(HandleFor(repr), config)))
            << "variant=" << v->name << " sampling=" << ToString(s)
            << " repr=" << ToString(repr);
      }
    }
  }
}

TEST(ConnectivityParity, ColdStreamMatchesDirectColdStructure) {
  const Reps& reps = TestReps();
  for (const Variant* v : StreamingVariants()) {
    auto direct = v->make_streaming(StreamingSeed::Cold(reps.coo.num_nodes));
    direct->ProcessBatch(reps.coo.edges, {});
    Connectivity index(Connectivity::Spec().Algorithm(v->descriptor));
    index.Stream(reps.coo.num_nodes);
    EXPECT_FALSE(index.streaming() == false);
    index.Insert(reps.coo.edges);
    ASSERT_EQ(CanonicalizeLabels(index.Labels()),
              CanonicalizeLabels(direct->Labels()))
        << "variant=" << v->name;
  }
}

// Spec::Representation converts Build's input: every source representation
// to every target, same partition, correct reported representation.
TEST(ConnectivitySpec, RepresentationConversionMatrix) {
  const Reps& reps = TestReps();
  const std::vector<NodeId> want =
      CanonicalizeLabels(SequentialComponents(reps.csr));
  for (const GraphRepresentation source : AllReprs()) {
    for (const GraphRepresentation target : AllReprs()) {
      Connectivity index(Connectivity::Spec()
                             .Representation(target)
                             .Shards(kShards + 1));
      index.Build(HandleFor(source));
      EXPECT_EQ(index.representation(), target)
          << "source=" << ToString(source) << " target=" << ToString(target);
      EXPECT_EQ(CanonicalizeLabels(index.Labels()), want)
          << "source=" << ToString(source) << " target=" << ToString(target);
    }
  }
}

TEST(ConnectivitySpec, DefaultSpecUsesDefaultVariant) {
  Connectivity index;
  EXPECT_EQ(&index.variant(), &DefaultVariant());
  EXPECT_EQ(index.spec().algorithm(), DefaultVariant().descriptor);
  EXPECT_FALSE(index.spec().representation().has_value());
}

TEST(ConnectivitySpec, AlgorithmStringFormParses) {
  Connectivity index(Connectivity::Spec().Algorithm("Liu-Tarjan;PRF"));
  EXPECT_EQ(index.variant().name, "Liu-Tarjan;PRF");
}

TEST(ConnectivitySpec, AutoKeepsCooInputsNative) {
  const Reps& reps = TestReps();
  const GraphHandle coo(reps.coo);
  const Connectivity::Spec spec = Connectivity::Spec::Auto(coo);
  EXPECT_EQ(spec.sampling().option, SamplingOption::kNone);
  EXPECT_FALSE(spec.representation().has_value());
  // The whole build stays edge-native: zero CSR materializations.
  Connectivity index(spec);
  const uint64_t before = CooCsrMaterializations();
  index.Build(coo);
  EXPECT_EQ(CooCsrMaterializations(), before);
  EXPECT_EQ(CanonicalizeLabels(index.Labels()),
            CanonicalizeLabels(SequentialComponents(reps.csr)));
}

TEST(ConnectivitySpec, AutoPicksSamplingByDensityAndStreamableVariants) {
  // Dense-ish CSR: sampling on. Sparse grid (avg degree < 4): off.
  const Graph dense = GenerateRmat(2048, 16384, /*seed=*/5);
  const Graph sparse = GenerateGrid(32, 32);
  EXPECT_EQ(Connectivity::Spec::Auto(dense).sampling().option,
            SamplingOption::kKOut);
  EXPECT_EQ(Connectivity::Spec::Auto(sparse).sampling().option,
            SamplingOption::kNone);
  // Streaming requests always get a streaming-capable variant.
  const Connectivity::Spec spec =
      Connectivity::Spec::Auto(dense, /*streaming=*/true);
  Connectivity index(spec);
  EXPECT_TRUE(index.variant().supports_streaming);
  index.Build(dense).Stream();
  index.Insert({{0, 1}});
  EXPECT_TRUE(index.SameComponent(0, 1));
}

TEST(Connectivity, MoveTransfersBuiltState) {
  const Reps& reps = TestReps();
  Connectivity a;
  a.Build(reps.csr);
  const std::vector<NodeId> labels = a.Labels();
  Connectivity b = std::move(a);
  EXPECT_EQ(b.Labels(), labels);
  EXPECT_EQ(b.num_nodes(), reps.csr.num_nodes());
  Connectivity c;
  c = std::move(b);
  EXPECT_EQ(c.Labels(), labels);
  // Moved-from indexes are un-built but keep a usable spec.
  EXPECT_EQ(a.num_nodes(), 0u);
  a.Build(reps.csr);
  EXPECT_EQ(a.Labels(), labels);
}

// A re-Stream() after Inserts and a splitting Erase seeds from the
// published labeling: Build, Stream, Insert, Erase, Stream again, Insert
// more, Erase again. After every step the served labeling equals a static
// recompute over the current edge set, under a strictly newer version.
TEST(Connectivity, ReStreamAfterMutationsSeedsFromPublishedLabeling) {
  // An RMAT core over [0, 256) and a path over [256, 320) that the first
  // batch hangs off the core at 300, so every path edge is a bridge.
  EdgeList base = GenerateRmatEdges(256, 1024, /*seed=*/31);
  base.num_nodes = 512;
  for (NodeId v = 257; v < 320; ++v) base.edges.push_back({v - 1, v});
  const std::vector<Edge> batch1 = {{300, 0}, {320, 321}, {7, 400}};
  const Edge cut1 = {280, 281};  // splits off [256, 280]
  const std::vector<Edge> batch2 = {{256, 401}, {401, 402}, {321, 9}};
  const Edge cut2 = {402, 401};  // splits off 402

  for (const Variant* v : StreamingVariants()) {
    for (const GraphRepresentation repr :
         {GraphRepresentation::kCsr, GraphRepresentation::kCoo}) {
      Connectivity index(
          Connectivity::Spec().Algorithm(v->descriptor).Representation(repr));
      EdgeList current = base;
      uint64_t version = 0;
      auto check = [&](const char* step) {
        EXPECT_EQ(CanonicalizeLabels(index.Labels()),
                  SequentialComponents(current))
            << "variant=" << v->name << " repr=" << ToString(repr)
            << " after " << step;
        const uint64_t now = index.Acquire().version();
        EXPECT_GT(now, version) << "variant=" << v->name << " after " << step;
        version = now;
      };
      auto insert = [&](const std::vector<Edge>& batch) {
        index.Insert(batch);
        current.edges.insert(current.edges.end(), batch.begin(), batch.end());
      };
      auto split = [&](const Edge& cut) {
        const NodeId components = index.NumComponents();
        index.Erase({cut});
        std::erase_if(current.edges, [&](const Edge& e) {
          return (e.u == cut.u && e.v == cut.v) ||
                 (e.u == cut.v && e.v == cut.u);
        });
        EXPECT_EQ(index.NumComponents(), components + 1)
            << "variant=" << v->name << ": the Erase must split";
      };

      index.Build(GraphHandle(base));
      check("Build");
      index.Stream();
      check("Stream");
      insert(batch1);
      check("Insert");
      split(cut1);
      check("Erase");
      index.Stream();
      check("re-Stream");
      insert(batch2);
      check("Insert after re-Stream");
      split(cut2);
      check("Erase after re-Stream");
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// Readers run concurrently with ingest batches and always observe a
// consistent snapshot (labels from some prefix of the batch sequence — in
// particular never a torn labeling that splits an original base edge).
TEST(Connectivity, ConcurrentReadsDuringIngest) {
  const NodeId n = 1u << 12;
  const EdgeList stream = GenerateRmatEdges(n, 4ull * n, /*seed=*/17);
  const size_t bulk = stream.size() / 2;
  EdgeList base;
  base.num_nodes = n;
  base.edges.assign(stream.edges.begin(), stream.edges.begin() + bulk);

  Connectivity index;
  index.Build(GraphHandle(base)).Stream();
  std::atomic<bool> stop{false};
  std::atomic<size_t> reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      // Base edges stay connected under every snapshot.
      const Edge& e = base.edges[reads.load(std::memory_order_relaxed) %
                                base.edges.size()];
      if (index.SameComponent(e.u, e.v)) {
        reads.fetch_add(1, std::memory_order_relaxed);
      } else {
        ADD_FAILURE() << "base edge disconnected in a served snapshot";
        break;
      }
      index.NumComponents();
    }
  });
  for (size_t start = bulk; start < stream.size(); start += 1024) {
    const size_t end = std::min(start + 1024, stream.size());
    index.Insert(std::vector<Edge>(stream.edges.begin() + start,
                                   stream.edges.begin() + end));
  }
  // Bounded wait for the reader to get scheduled at least once — on a
  // single-core runner the ingest loop can finish before the reader ever
  // runs, which is a scheduling artifact, not a serving bug.
  for (int spin = 0; spin < 200000 && reads.load() == 0; ++spin) {
    std::this_thread::yield();
  }
  stop.store(true);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  // Final state equals the full static run.
  Connectivity full;
  full.Build(GraphHandle(stream));
  EXPECT_EQ(CanonicalizeLabels(index.Labels()),
            CanonicalizeLabels(full.Labels()));
}

// Insert and Erase check every vertex they would index before anything
// changes: a bad endpoint throws std::out_of_range, nothing is applied or
// published, and the index keeps serving and taking batches.
TEST(Connectivity, OutOfRangeVerticesThrowBeforeAnyChange) {
  EdgeList base;
  base.num_nodes = 8;
  base.edges = {{0, 1}, {2, 3}, {4, 5}};
  Connectivity index;
  index.Build(GraphHandle(base)).Stream();
  const NodeId far = NodeId{1} << 30;
  const auto expect_rejected = [&](const std::function<void()>& batch,
                                   const char* what) {
    const uint64_t version = index.Acquire().version();
    const std::vector<NodeId> labels = index.Labels();
    EXPECT_THROW(batch(), std::out_of_range) << what;
    EXPECT_EQ(index.Acquire().version(), version) << what;
    EXPECT_EQ(index.Labels(), labels) << what;
    // Still writable: a valid batch applies and publishes.
    EXPECT_EQ(index.Insert({{6, 7}}, {{6, 7}}), std::vector<uint8_t>{1})
        << what;
    EXPECT_GT(index.Acquire().version(), version) << what;
  };
  expect_rejected([&] { index.Insert({{2, 3}, {5, far}}); }, "update");
  expect_rejected([&] { index.Insert({{2, 3}}, {{0, far}}); }, "query");
  expect_rejected([&] { index.Insert({{8, 0}}); }, "one past the end");
  expect_rejected([&] { index.Erase({{0, 1}}, {{0, far}}); },
                  "erase query before arming");
  EXPECT_TRUE(index.SameComponent(0, 1));  // the rejected Erase erased none
  index.Erase({});                         // arms the forest
  expect_rejected([&] { index.Insert({{far, 0}}); }, "update after arming");
  expect_rejected([&] { index.Erase({{0, 1}}, {{8, 0}}); },
                  "erase query after arming");
  EXPECT_TRUE(index.SameComponent(0, 1));
  // An out-of-range Erase update stays a miss, as any absent edge is.
  const stats::ServingSnapshot before = stats::ReadServing();
  EXPECT_EQ(index.Erase({{0, far}, {0, 1}}, {{0, 1}}),
            std::vector<uint8_t>{0});
  const stats::ServingSnapshot after = stats::ReadServing();
  EXPECT_EQ(after.erase_misses - before.erase_misses, 1u);
  EXPECT_EQ(after.edges_erased - before.edges_erased, 1u);
}

TEST(ConnectivityDeathTest, LifecycleGuardsDie) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(Connectivity().Stream(), "requires Build");
  EXPECT_DEATH(Connectivity().Insert({{0, 1}}), "requires Stream");
  EXPECT_DEATH(Connectivity(Connectivity::Spec().Algorithm("Stergiou"))
                   .Build(TestReps().csr)
                   .Stream(),
               "no streaming form");
  EXPECT_DEATH(Connectivity(Connectivity::Spec().Algorithm("no-such-name")),
               "did you mean");
}

}  // namespace
}  // namespace connectit
