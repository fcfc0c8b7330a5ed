// The wait-free serving layer: epoch-published Connectivity::Snapshot.
//
// Pins the properties the design note in connectivity_index.h claims:
// (1) an Acquire'd Snapshot is immutable — its answers are frozen at the
// publication it pinned, no matter how many batches land afterwards;
// (2) the published snapshot after every batch equals Labels() and a
// static recompute over the edges applied so far — across streaming
// variants × representations; (3) retired blocks drain through the epoch
// domain — a pinned reader defers exactly its own block, and everything is
// reclaimed once handles drop (ASan/TSan-clean by construction); (4) an
// empty handle (default-constructed or moved-from) serves zero nodes:
// point reads throw std::out_of_range, materializations are empty;
// (5) incremental publication — copy-on-write pages, small-to-large
// relabelling, full republication after a split — matches a static
// recompute after every Insert and Erase. Plus the many-readers-one-writer
// stress the TSan CI job runs.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/algo/verify.h"
#include "src/core/components.h"
#include "src/core/connectivity_index.h"
#include "src/core/registry.h"
#include "src/graph/builder.h"
#include "src/graph/generators.h"
#include "src/graph/graph_handle.h"
#include "src/parallel/epoch.h"
#include "src/stats/counters.h"

namespace connectit {
namespace {

// A snapshot's invariants hold internally: fully compressed labels, sizes
// indexed by representative equal to a recount, component count matching.
void CheckSnapshotConsistent(const Snapshot& snap) {
  const std::vector<NodeId> labels = snap.Labels();
  ASSERT_EQ(labels.size(), snap.num_nodes());
  NodeId total = 0;
  for (NodeId v = 0; v < snap.num_nodes(); ++v) {
    ASSERT_EQ(labels[labels[v]], labels[v]) << "not fully compressed at " << v;
    ASSERT_EQ(snap.Component(v), labels[v]);
    total += snap.ComponentSize(v);
  }
  ASSERT_EQ(total, snap.num_nodes());
  ASSERT_EQ(snap.NumComponents(), CountComponents(labels));
  ASSERT_EQ(snap.ComponentSizes(), ComponentSizes(labels));
}

TEST(ServingSnapshot, AcquiredSnapshotIsImmutableUnderConcurrentInsert) {
  const NodeId n = 1u << 11;
  const EdgeList stream = GenerateRmatEdges(n, 4ull * n, /*seed=*/3);
  EdgeList base;
  base.num_nodes = n;
  base.edges.assign(stream.edges.begin(),
                    stream.edges.begin() + stream.size() / 2);

  Connectivity index;
  index.Build(GraphHandle(base)).Stream();
  const Snapshot pinned = index.Acquire();
  const std::vector<NodeId> frozen = pinned.Labels();
  const NodeId frozen_components = pinned.NumComponents();
  const uint64_t frozen_version = pinned.version();

  // Land the rest of the stream while a thread hammers the pinned snapshot.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_EQ(pinned.NumComponents(), frozen_components);
      ASSERT_EQ(pinned.Component(0), frozen[0]);
    }
  });
  for (size_t start = stream.size() / 2; start < stream.size();
       start += 512) {
    const size_t end = std::min(start + 512, stream.size());
    index.Insert(std::vector<Edge>(stream.edges.begin() + start,
                                   stream.edges.begin() + end));
  }
  stop.store(true);
  reader.join();

  // Every answer is still the publication Acquire pinned.
  EXPECT_EQ(pinned.Labels(), frozen);
  EXPECT_EQ(pinned.NumComponents(), frozen_components);
  EXPECT_EQ(pinned.version(), frozen_version);
  CheckSnapshotConsistent(pinned);

  // A fresh Acquire sees the post-batch world, strictly newer.
  const Snapshot fresh = index.Acquire();
  EXPECT_GT(fresh.version(), frozen_version);
  EXPECT_LE(fresh.NumComponents(), frozen_components);
  CheckSnapshotConsistent(fresh);
}

// After every batch, the published snapshot equals Labels() and a static
// recompute over the base plus the batches applied so far — across every
// streaming variant × representation.
TEST(ServingSnapshot, PublicationParityAfterEveryBatchAcrossVariants) {
  const Graph csr = GenerateComponentMixture(600, 5, /*seed=*/41);
  const EdgeList all = ExtractEdges(csr);
  const size_t held = all.size() / 4;
  EdgeList base;
  base.num_nodes = all.num_nodes;
  base.edges.assign(all.edges.begin(), all.edges.end() - held);
  const Graph base_csr = BuildGraph(base);

  const std::vector<Edge> tail(all.edges.end() - held, all.edges.end());
  const size_t kBatch = held / 3 + 1;

  for (const Variant* v : StreamingVariants()) {
    for (const GraphRepresentation repr :
         {GraphRepresentation::kCsr, GraphRepresentation::kCoo}) {
      Connectivity index(Connectivity::Spec()
                             .Algorithm(v->descriptor)
                             .Representation(repr));
      index.Build(base_csr).Stream();
      EdgeList applied = base;
      uint64_t last_version = index.Acquire().version();
      for (size_t start = 0; start < tail.size(); start += kBatch) {
        const size_t end = std::min(start + kBatch, tail.size());
        const std::vector<Edge> batch(tail.begin() + start,
                                      tail.begin() + end);
        index.Insert(batch);
        applied.edges.insert(applied.edges.end(), batch.begin(), batch.end());
        const Snapshot snap = index.Acquire();
        EXPECT_GT(snap.version(), last_version) << "variant=" << v->name;
        last_version = snap.version();
        CheckSnapshotConsistent(snap);
        // Snapshot == Labels() == a static recompute of this prefix.
        ASSERT_EQ(snap.Labels(), index.Labels())
            << "variant=" << v->name << " repr=" << ToString(repr);
        ASSERT_EQ(CanonicalizeLabels(snap.Labels()),
                  SequentialComponents(applied))
            << "variant=" << v->name << " repr=" << ToString(repr);
      }
      // Final parity with the full static run.
      ASSERT_EQ(CanonicalizeLabels(index.Labels()),
                CanonicalizeLabels(v->run(GraphHandle(csr), SamplingConfig())))
          << "variant=" << v->name << " repr=" << ToString(repr);
    }
  }
}

// A pinned reader defers reclamation of exactly its own block; once every
// handle drops and the index dies, the epoch domain drains back to where
// it started — no leaked snapshot blocks (ASan-clean is the real check;
// the counters make the drain observable in a plain build too).
TEST(ServingSnapshot, EpochReclamationDrainsWithPinnedReader) {
  const stats::ServingSnapshot before = stats::ReadServing();
  const size_t backlog_before = epoch::Domain::Global().backlog();
  {
    Connectivity index;
    index.Stream(/*num_nodes=*/512);
    Snapshot pinned = index.Acquire();  // pins publication #2 (post-Stream)
    const uint64_t pinned_version = pinned.version();
    for (int i = 0; i < 8; ++i) {
      index.Insert({{static_cast<NodeId>(i), static_cast<NodeId>(i + 1)}});
    }
    // Eight publications retired seven predecessors; the pinned block is
    // among them and must survive, the rest may reclaim eagerly.
    EXPECT_EQ(pinned.version(), pinned_version);
    EXPECT_EQ(pinned.num_nodes(), 512u);
    EXPECT_GE(epoch::Domain::Global().backlog(), 1u)
        << "the pinned block must sit in the deferred backlog";
    // Copies share the block (one refcount), droppable in any order.
    Snapshot copy = pinned;
    pinned = Snapshot();
    EXPECT_EQ(copy.version(), pinned_version);
    copy = Snapshot();  // last handle: release triggers TryReclaim
  }
  // Index destruction retired the head; with no pinned readers left the
  // domain drains completely.
  EXPECT_EQ(epoch::Domain::Global().backlog(), backlog_before);
  const stats::ServingSnapshot after = stats::ReadServing();
  EXPECT_EQ(after.snapshots_retired - before.snapshots_retired,
            after.snapshots_reclaimed - before.snapshots_reclaimed);
  // 1 ctor + 1 Stream + 8 Inserts = 10 publications from this test.
  EXPECT_EQ(after.snapshot_publications - before.snapshot_publications, 10u);
}

TEST(ServingSnapshot, SnapshotOutlivesItsIndex) {
  Snapshot survivor;
  {
    Connectivity index;
    index.Stream(/*num_nodes=*/64);
    index.Insert({{1, 2}, {2, 3}});
    survivor = index.Acquire();
  }
  // The index (and its published head) are gone; the handle keeps the
  // block alive.
  EXPECT_EQ(survivor.num_nodes(), 64u);
  EXPECT_TRUE(survivor.SameComponent(1, 3));
  EXPECT_FALSE(survivor.SameComponent(0, 1));
  CheckSnapshotConsistent(survivor);
}

// An empty handle serves zero nodes: default-constructed and moved-from
// Snapshots throw on point reads instead of dereferencing nothing.
TEST(ServingSnapshot, EmptyHandleThrowsOutOfRange) {
  Connectivity index;
  index.Stream(/*num_nodes=*/8);
  Snapshot moved_from = index.Acquire();
  const Snapshot moved_to = std::move(moved_from);
  ASSERT_TRUE(moved_to.valid());
  const Snapshot fresh;
  const Snapshot* const empties[] = {&fresh, &moved_from};
  for (const Snapshot* empty : empties) {
    EXPECT_FALSE(empty->valid());
    EXPECT_EQ(empty->num_nodes(), 0u);
    EXPECT_EQ(empty->NumComponents(), 0u);
    EXPECT_EQ(empty->version(), 0u);
    EXPECT_THROW(empty->Component(0), std::out_of_range);
    EXPECT_THROW(empty->SameComponent(0, 1), std::out_of_range);
    EXPECT_THROW(empty->ComponentSize(0), std::out_of_range);
    EXPECT_TRUE(empty->Labels().empty());
    EXPECT_TRUE(empty->ComponentSizes().empty());
  }
}

// The TSan target: many wait-free readers, one ingesting writer, snapshots
// acquired and dropped mid-stream. Readers assert per-snapshot consistency
// (base edges stay connected, answers within one snapshot cohere).
TEST(ServingSnapshot, ManyReadersOneWriterStress) {
  const NodeId n = 1u << 12;
  const EdgeList stream = GenerateRmatEdges(n, 4ull * n, /*seed=*/23);
  const size_t bulk = stream.size() / 2;
  EdgeList base;
  base.num_nodes = n;
  base.edges.assign(stream.edges.begin(), stream.edges.begin() + bulk);

  Connectivity index;
  index.Build(GraphHandle(base)).Stream();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t i = 0;
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Edge& e = base.edges[(r * 7919 + i++) % base.edges.size()];
        // Point reads: wait-free, always against a complete labeling.
        if (!index.SameComponent(e.u, e.v)) {
          ADD_FAILURE() << "base edge disconnected in a served labeling";
          break;
        }
        // Pinned multi-query consistency + monotonic publications.
        const Snapshot snap = index.Acquire();
        if (snap.version() < last_version) {
          ADD_FAILURE() << "publication went backwards";
          break;
        }
        last_version = snap.version();
        const NodeId u_label = snap.Component(e.u);
        if (snap.Component(e.v) != u_label ||
            snap.Component(u_label) != u_label) {
          ADD_FAILURE() << "snapshot answers incoherent";
          break;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t start = bulk; start < stream.size(); start += 1024) {
    const size_t end = std::min(start + 1024, stream.size());
    index.Insert(std::vector<Edge>(stream.edges.begin() + start,
                                   stream.edges.begin() + end));
  }
  // Give every reader a chance to finish at least one full check before
  // stopping, so the assertion below is not schedule-dependent on a small
  // machine (bounded: ~200k yields).
  for (int spin = 0; spin < 200000 && reads.load() < kReaders; ++spin) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  // Final parity with the full static run.
  Connectivity full;
  full.Build(GraphHandle(stream));
  EXPECT_EQ(CanonicalizeLabels(index.Labels()),
            CanonicalizeLabels(full.Labels()));
}

// ---- batch boundaries and incremental publication ----

// Streams batches into `index` and requires every acquired snapshot to sit
// exactly on the boundary of the batch just applied — the reference prefix
// labeling, never a half-applied batch — under a fresh version.
void StreamAndCheckBoundaries(Connectivity& index, const char* what) {
  const NodeId n = 512;
  const EdgeList stream = GenerateRmatEdges(n, 3ull * n, /*seed=*/7);
  const size_t kBatch = 128;

  EdgeList prefix;
  prefix.num_nodes = n;
  index.Stream(n);
  uint64_t last_version = index.Acquire().version();
  for (size_t start = 0; start < stream.size(); start += kBatch) {
    const size_t end = std::min(start + kBatch, stream.size());
    const std::vector<Edge> batch(stream.edges.begin() + start,
                                  stream.edges.begin() + end);
    index.Insert(batch);
    prefix.edges.insert(prefix.edges.end(), batch.begin(), batch.end());
    const Snapshot snap = index.Acquire();
    ASSERT_GT(snap.version(), last_version) << what;
    last_version = snap.version();
    ASSERT_EQ(CanonicalizeLabels(snap.Labels()), SequentialComponents(prefix))
        << what << ": snapshot after batch " << start / kBatch + 1
        << " is not that batch's boundary";
  }
  EXPECT_EQ(index.Acquire().Labels(), index.Labels()) << what;
}

TEST(ServingSnapshot, SnapshotsSitOnBatchBoundaries) {
  Connectivity index;
  StreamAndCheckBoundaries(index, "default spec");
}

// A deletion is visible in the very next Acquire, with every earlier
// insert.
TEST(ServingSnapshot, ErasePublishesImmediately) {
  Connectivity index;
  index.Stream(/*num_nodes=*/64);
  index.Insert({{1, 2}, {2, 3}});
  index.Insert({{4, 5}});
  index.Erase({{1, 2}});
  const Snapshot snap = index.Acquire();
  EXPECT_EQ(snap.Labels(), index.Labels());
  EXPECT_FALSE(snap.SameComponent(1, 2)) << "erase not visible";
  EXPECT_TRUE(snap.SameComponent(2, 3)) << "insert lost across the erase";
  EXPECT_TRUE(snap.SameComponent(4, 5)) << "insert lost across the erase";
}

TEST(ServingSnapshot, DefaultSpecPublishesEveryBatch) {
  Connectivity index;
  index.Stream(/*num_nodes=*/128);
  uint64_t version = index.Acquire().version();
  for (int i = 0; i < 6; ++i) {
    index.Insert({{static_cast<NodeId>(i), static_cast<NodeId>(i + 1)}});
    const uint64_t now = index.Acquire().version();
    EXPECT_GT(now, version) << "every batch must publish";
    version = now;
  }
}

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

EdgeList ToEdgeList(NodeId n, const EdgeSet& present) {
  EdgeList out;
  out.num_nodes = n;
  for (const auto& [u, v] : present) out.edges.push_back({u, v});
  return out;
}

// One seeded run: Build(base) -> Stream -> alternating Insert and Erase
// batches. Sparse random edges make many Erases split a component, and the
// next Insert then publishes incrementally on top of the split's full
// publication. After every batch the snapshot must be internally
// consistent and partition the vertices exactly as a static recompute over
// the surviving edges does. Returns the splits the run made.
uint64_t RunPublicationDifferential(const Variant& variant,
                                    GraphRepresentation repr, uint64_t seed) {
  constexpr NodeId kNodes = 200;
  constexpr int kRounds = 12;
  std::mt19937_64 rng(seed);
  auto random_vertex = [&] { return static_cast<NodeId>(rng() % kNodes); };
  auto add = [](EdgeSet& set, const Edge& e) {
    if (e.u != e.v) set.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  };

  EdgeSet present;
  EdgeList base;
  base.num_nodes = kNodes;
  for (int i = 0; i < 160; ++i) {
    base.edges.push_back({random_vertex(), random_vertex()});
    add(present, base.edges.back());
  }
  Connectivity index(
      Connectivity::Spec().Algorithm(variant.descriptor).Representation(repr));
  index.Build(GraphHandle(base)).Stream();

  const uint64_t splits_before = stats::ReadServing().components_split;
  for (int round = 0; round < 2 * kRounds; ++round) {
    std::vector<Edge> batch;
    if (round % 2 == 0) {
      for (int i = 0; i < 12; ++i) {
        batch.push_back({random_vertex(), random_vertex()});
        add(present, batch.back());
      }
      index.Insert(batch);
    } else {
      for (int i = 0; i < 10 && !present.empty(); ++i) {
        auto it = present.begin();
        std::advance(it, rng() % present.size());
        batch.push_back({it->first, it->second});
        present.erase(it);
      }
      index.Erase(batch);
    }
    const Snapshot snap = index.Acquire();
    CheckSnapshotConsistent(snap);
    EXPECT_EQ(CanonicalizeLabels(snap.Labels()),
              SequentialComponents(ToEdgeList(kNodes, present)))
        << variant.name << " on " << ToString(repr) << ", seed " << seed
        << ", batch " << round;
    if (::testing::Test::HasFailure()) break;
  }
  return stats::ReadServing().components_split - splits_before;
}

TEST(ServingSnapshot, IncrementalPublicationMatchesRecompute) {
  uint64_t splits = 0;
  for (const Variant* v : StreamingVariants()) {
    for (const GraphRepresentation repr :
         {GraphRepresentation::kCsr, GraphRepresentation::kCoo}) {
      splits += RunPublicationDifferential(*v, repr, /*seed=*/2024);
      if (::testing::Test::HasFailure()) return;
    }
  }
  EXPECT_GT(splits, 0u) << "no Erase split a component";
}

// Copy-on-write never writes a page a published snapshot holds: a snapshot
// pinned mid-stream reads back byte for byte the same after many more
// Inserts and Erases, splitting ones included.
TEST(ServingSnapshot, PinnedSnapshotSurvivesLaterBatchesUnchanged) {
  const NodeId n = 1u << 12;
  const EdgeList stream = GenerateRmatEdges(n, 3ull * n, /*seed=*/5);
  const size_t kBatch = 256;
  Connectivity index;
  index.Stream(n);
  Snapshot pinned;
  std::vector<NodeId> labels, sizes;
  NodeId components = 0;
  uint64_t version = 0;
  size_t batches = 0;
  for (size_t start = 0; start < stream.size(); start += kBatch, ++batches) {
    const size_t end = std::min(start + kBatch, stream.size());
    const std::vector<Edge> batch(stream.edges.begin() + start,
                                  stream.edges.begin() + end);
    index.Insert(batch);
    if (batches % 4 == 3) {
      index.Erase(std::vector<Edge>(batch.begin(), batch.begin() + 64));
    }
    if (batches == 3) {
      pinned = index.Acquire();
      labels = pinned.Labels();
      sizes = pinned.ComponentSizes();
      components = pinned.NumComponents();
      version = pinned.version();
    }
  }
  ASSERT_GE(batches, 20u);
  EXPECT_GT(index.Acquire().version(), version + 16);
  EXPECT_EQ(pinned.Labels(), labels);
  EXPECT_EQ(pinned.ComponentSizes(), sizes);
  EXPECT_EQ(pinned.NumComponents(), components);
  EXPECT_EQ(pinned.version(), version);
  CheckSnapshotConsistent(pinned);
}

// Small-to-large: a merge relabels the smaller side, so joining a
// singleton leaves the large component's representative in place — even
// when the singleton has the smaller id.
TEST(ServingSnapshot, MergeRelabelsTheSmallerSide) {
  Connectivity index;
  index.Stream(/*num_nodes=*/1000);
  std::vector<Edge> path;
  for (NodeId v = 501; v < 600; ++v) path.push_back({v - 1, v});
  index.Insert(path);
  const Snapshot before = index.Acquire();
  const NodeId rep = before.Component(550);
  ASSERT_EQ(before.ComponentSize(rep), 100u);

  index.Insert({{0, 550}});
  const Snapshot after = index.Acquire();
  EXPECT_EQ(after.Component(550), rep);
  EXPECT_EQ(after.Component(500), rep);
  EXPECT_EQ(after.Component(0), rep) << "the singleton joins the large side";
  EXPECT_EQ(after.ComponentSize(rep), 101u);
  EXPECT_EQ(after.ComponentSize(0), 0u);
  EXPECT_EQ(after.NumComponents(), before.NumComponents() - 1);
}

}  // namespace
}  // namespace connectit
