// Unit tests for the parallel runtime: thread pool, loops, primitives,
// atomics, and deterministic RNG.

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/parallel/atomics.h"
#include "src/parallel/primitives.h"
#include "src/parallel/random.h"
#include "src/parallel/thread_pool.h"

namespace connectit {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr size_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(0, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  std::atomic<int> count{0};
  ParallelFor(5, 5, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  ParallelFor(7, 8, [&](size_t i) {
    EXPECT_EQ(i, 7u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, NestedCallsRunSerially) {
  std::atomic<size_t> total{0};
  ParallelFor(0, 64, [&](size_t) {
    ParallelFor(0, 64, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64u * 64u);
}

TEST(ParallelFor, RespectsExplicitGrain) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(0, kN, [&](size_t i) { hits[i].fetch_add(1); }, /*grain=*/7);
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ParallelForBlocked, CoversRangeWithDisjointBlocks) {
  constexpr size_t kN = 54321;
  std::vector<std::atomic<int>> hits(kN);
  ParallelForBlocked(0, kN, [&](size_t lo, size_t hi) {
    ASSERT_LT(lo, hi);
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ResizeWorks) {
  const size_t original = NumWorkers();
  SetNumWorkers(2);
  EXPECT_EQ(NumWorkers(), 2u);
  std::atomic<int> count{0};
  ParallelFor(0, 1000, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000);
  SetNumWorkers(original);
  EXPECT_EQ(NumWorkers(), original);
}

// Threads outside the pool may run parallel loops at the same time: their
// jobs queue behind each other instead of overwriting each other's job
// state, so every sum is exact.
TEST(ThreadPool, ConcurrentOutsideCallersGetExactSums) {
  SetNumWorkers(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 1000;
  constexpr size_t kN = 4096;
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRounds; ++r) {
        std::atomic<uint64_t> sum{0};
        ParallelFor(
            0, kN,
            [&](size_t i) { sum.fetch_add(i + c, std::memory_order_relaxed); },
            /*grain=*/64);
        if (sum.load() != kN * (kN - 1) / 2 + kN * c) wrong.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  SetNumWorkers(0);
}

TEST(ParallelReduce, SumAndMax) {
  constexpr size_t kN = 100000;
  const uint64_t sum =
      ParallelSum<uint64_t>(0, kN, [](size_t i) { return i; });
  EXPECT_EQ(sum, static_cast<uint64_t>(kN) * (kN - 1) / 2);
  const uint64_t mx = ParallelReduce<uint64_t>(
      0, kN, 0, [](size_t i) { return i * 7 % 1000; },
      [](uint64_t a, uint64_t b) { return std::max(a, b); });
  EXPECT_EQ(mx, 999u);  // gcd(7, 1000) == 1, so every residue is hit
}

TEST(ParallelCount, CountsPredicate) {
  EXPECT_EQ(ParallelCount(0, 1000, [](size_t i) { return i % 3 == 0; }),
            334u);
  EXPECT_EQ(ParallelCount(0, 0, [](size_t) { return true; }), 0u);
}

TEST(ScanExclusive, MatchesSerialPrefixSum) {
  for (size_t n : {0u, 1u, 5u, 4096u, 100001u}) {
    std::vector<uint64_t> data(n);
    for (size_t i = 0; i < n; ++i) data[i] = (i * 2654435761u) % 10;
    std::vector<uint64_t> expected(n);
    uint64_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
      expected[i] = acc;
      acc += data[i];
    }
    const uint64_t total = ScanExclusive(data.data(), n);
    EXPECT_EQ(total, acc);
    EXPECT_EQ(data, expected) << "n=" << n;
  }
}

TEST(ParallelPack, StableAndComplete) {
  constexpr size_t kN = 100000;
  const std::vector<size_t> out =
      ParallelFilterIndices(kN, [](size_t i) { return i % 7 == 2; });
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  for (size_t v : out) EXPECT_EQ(v % 7, 2u);
  EXPECT_EQ(out.size(), (kN - 3) / 7 + 1);
}

TEST(ParallelSort, SortsLargeArrays) {
  constexpr size_t kN = 200000;
  Rng rng(99);
  std::vector<uint64_t> data(kN);
  for (size_t i = 0; i < kN; ++i) data[i] = rng.Get(i) % 1000;
  std::vector<uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());
  ParallelSort(data);
  EXPECT_EQ(data, expected);
}

TEST(ParallelSort, CustomComparator) {
  std::vector<int> data = {5, 3, 9, 1, 7};
  ParallelSort(data, std::greater<int>());
  EXPECT_EQ(data, (std::vector<int>{9, 7, 5, 3, 1}));
}

TEST(Atomics, WriteMinLowersMonotonically) {
  uint32_t x = 100;
  EXPECT_TRUE(WriteMin(&x, 50u));
  EXPECT_EQ(x, 50u);
  EXPECT_FALSE(WriteMin(&x, 75u));
  EXPECT_EQ(x, 50u);
  EXPECT_FALSE(WriteMin(&x, 50u));
}

TEST(Atomics, ConcurrentWriteMinKeepsGlobalMinimum) {
  constexpr size_t kN = 100000;
  uint64_t target = UINT64_MAX;
  ParallelFor(0, kN, [&](size_t i) { WriteMin(&target, Hash64(i) | 1); });
  uint64_t expected = UINT64_MAX;
  for (size_t i = 0; i < kN; ++i) expected = std::min(expected, Hash64(i) | 1);
  EXPECT_EQ(target, expected);
}

TEST(Atomics, WriteMaxRaises) {
  uint32_t x = 10;
  EXPECT_TRUE(WriteMax(&x, 20u));
  EXPECT_FALSE(WriteMax(&x, 15u));
  EXPECT_EQ(x, 20u);
}

TEST(Atomics, CompareAndSwapSemantics) {
  uint32_t x = 7;
  EXPECT_FALSE(CompareAndSwap(&x, 8u, 9u));
  EXPECT_EQ(x, 7u);
  EXPECT_TRUE(CompareAndSwap(&x, 7u, 9u));
  EXPECT_EQ(x, 9u);
}

TEST(Atomics, FetchAddAccumulates) {
  uint64_t x = 0;
  ParallelFor(0, 10000, [&](size_t) { FetchAdd<uint64_t>(&x, 3); });
  EXPECT_EQ(x, 30000u);
}

TEST(Rng, DeterministicAndSeedSensitive) {
  Rng a(42);
  Rng b(42);
  Rng c(43);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Get(i), b.Get(i));
  }
  size_t diff = 0;
  for (uint64_t i = 0; i < 100; ++i) diff += (a.Get(i) != c.Get(i));
  EXPECT_GT(diff, 90u);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(1);
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.GetBounded(i, 17), 17u);
  }
  // All residues hit for a small bound.
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(rng.GetBounded(i, 5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (uint64_t i = 0; i < 10000; ++i) {
    const double d = rng.GetDouble(i);
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng b = a.Split(1);
  size_t same = 0;
  for (uint64_t i = 0; i < 1000; ++i) same += (a.Get(i) == b.Get(i));
  EXPECT_LT(same, 5u);
}

}  // namespace
}  // namespace connectit
