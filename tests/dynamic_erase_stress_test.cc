// Concurrency stress for the batch-deletion path: snapshot readers race
// against a writer alternating Erase / Insert batches. Runs under TSan in
// CI (next to serving_snapshot_test) to certify the Erase mutator path —
// forest maintenance, replacement search, full publication on a split —
// against the wait-free read path.
//
// Atomicity invariant under test: the graph is a set of disjoint pair
// edges (2i, 2i+1) that the writer deletes and reinserts as whole
// batches, so a published labeling either connects EVERY pair or NO pair.
// A snapshot that mixes the two states caught a half-applied batch.
// Publication parity: each applied batch publishes exactly one snapshot.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/connectivity_index.h"
#include "src/graph/types.h"
#include "src/stats/counters.h"

namespace connectit {
namespace {

TEST(DynamicEraseStress, ReadersNeverSeeHalfAppliedDeletions) {
  constexpr NodeId kPairs = 512;
  constexpr NodeId kNodes = 2 * kPairs;
  constexpr int kReaders = 4;
  constexpr int kRounds = 60;  // each round = one Erase batch + one Insert

  std::vector<Edge> pair_edges;
  pair_edges.reserve(kPairs);
  for (NodeId i = 0; i < kPairs; ++i) {
    pair_edges.push_back({static_cast<NodeId>(2 * i),
                          static_cast<NodeId>(2 * i + 1)});
  }

  Connectivity index;  // default spec: snapshot serving
  index.Stream(kNodes);
  index.Insert(pair_edges);

  const stats::ServingSnapshot before = stats::ReadServing();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots_checked{0};
  std::atomic<uint64_t> mixed_states{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        const Snapshot snap = index.Acquire();
        ASSERT_TRUE(snap.valid());
        // Sample pairs across the range; within one snapshot the answer
        // must be uniform — all connected or all split.
        const bool first = snap.SameComponent(0, 1);
        bool mixed = false;
        for (NodeId i = 1; i < kPairs; i += 7 + r) {
          if (snap.SameComponent(2 * i, 2 * i + 1) != first) {
            mixed = true;
            break;
          }
        }
        if (mixed) mixed_states.fetch_add(1, std::memory_order_relaxed);
        // Component count must match one of the two legal states too.
        const NodeId c = snap.NumComponents();
        if (c != kPairs && c != kNodes) {
          mixed_states.fetch_add(1, std::memory_order_relaxed);
        }
        snapshots_checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 0; round < kRounds; ++round) {
    index.Erase(pair_edges);   // all pairs split, atomically
    index.Insert(pair_edges);  // all pairs reconnected, atomically
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mixed_states.load(), 0u)
      << "a reader observed a half-applied Erase or Insert batch";
  EXPECT_GT(snapshots_checked.load(), 0u);

  const stats::ServingSnapshot after = stats::ReadServing();
  // Publication parity: one publication per applied batch (kRounds Erase +
  // kRounds Insert), on top of the setup publications already counted in
  // `before`.
  EXPECT_EQ(after.snapshot_publications - before.snapshot_publications,
            static_cast<uint64_t>(2 * kRounds));
  EXPECT_EQ(after.erase_batches - before.erase_batches,
            static_cast<uint64_t>(kRounds));
  EXPECT_EQ(after.edges_erased - before.edges_erased,
            static_cast<uint64_t>(kRounds) * kPairs);
  // Every deleted edge is a forest edge (the forest IS the pair edges) and
  // none has a replacement, so every round splits every pair.
  EXPECT_EQ(after.forest_edge_hits - before.forest_edge_hits,
            static_cast<uint64_t>(kRounds) * kPairs);
  EXPECT_EQ(after.components_split - before.components_split,
            static_cast<uint64_t>(kRounds) * kPairs);

  // The final state (after the last Insert) has every pair connected.
  EXPECT_EQ(index.NumComponents(), kPairs);
}

// Erase batches racing wait-free readers on a graph with replacements:
// a ring stays connected when single edges are deleted and reinserted, so
// readers must never observe ANY labeling change (surviving-replacement
// invariance, concurrently).
TEST(DynamicEraseStress, SurvivingReplacementsAreInvisibleToReaders) {
  constexpr NodeId kNodes = 256;
  constexpr int kRounds = 40;

  std::vector<Edge> ring;
  ring.reserve(kNodes);
  for (NodeId i = 0; i < kNodes; ++i) {
    ring.push_back({i, static_cast<NodeId>((i + 1) % kNodes)});
  }
  // Chords double the connectivity so deleting any ring edge always has a
  // surviving replacement.
  std::vector<Edge> chords;
  for (NodeId i = 0; i < kNodes; i += 2) {
    chords.push_back({i, static_cast<NodeId>((i + 2) % kNodes)});
  }

  Connectivity index;
  index.Stream(kNodes);
  index.Insert(ring);
  index.Insert(chords);
  ASSERT_EQ(index.NumComponents(), 1u);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> divergent{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const Snapshot snap = index.Acquire();
      if (snap.NumComponents() != 1) {
        divergent.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (int round = 0; round < kRounds; ++round) {
    // Delete a sliding window of odd-index ring edges (their endpoints
    // stay connected through the chords), then restore them.
    std::vector<Edge> window;
    for (NodeId i = 1 + (round % 2); i < kNodes; i += 8) {
      window.push_back(ring[i]);
    }
    index.Erase(window);
    index.Insert(window);
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(divergent.load(), 0u)
      << "a deletion with a surviving replacement changed a query answer";
  EXPECT_EQ(index.NumComponents(), 1u);
}

}  // namespace
}  // namespace connectit
