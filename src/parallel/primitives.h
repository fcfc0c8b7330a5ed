// Parallel sequence primitives: reduce, scan (prefix sums), pack/filter,
// histogram and sorting helpers built on ParallelFor.
//
// These mirror the Ligra/GBBS primitives the paper's implementation relies
// on. All primitives are deterministic for a fixed input regardless of the
// number of workers.

#ifndef CONNECTIT_PARALLEL_PRIMITIVES_H_
#define CONNECTIT_PARALLEL_PRIMITIVES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

#include "src/parallel/atomics.h"
#include "src/parallel/thread_pool.h"

namespace connectit {

namespace internal {

inline size_t NumBlocks(size_t n, size_t block) { return (n + block - 1) / block; }

inline size_t BlockSizeFor(size_t n) {
  const size_t workers = NumWorkers();
  size_t block = n / (workers * 8) + 1;
  if (block < 2048) block = 2048;  // amortize per-block bookkeeping
  return block;
}

}  // namespace internal

// Parallel reduction of f(i) over [begin, end) with an associative,
// commutative combiner. `identity` must be the combiner's identity.
template <typename T, typename F, typename Combine>
T ParallelReduce(size_t begin, size_t end, T identity, F&& f,
                 Combine&& combine) {
  if (begin >= end) return identity;
  const size_t n = end - begin;
  const size_t block = internal::BlockSizeFor(n);
  const size_t nblocks = internal::NumBlocks(n, block);
  if (nblocks <= 1) {
    T acc = identity;
    for (size_t i = begin; i < end; ++i) acc = combine(acc, f(i));
    return acc;
  }
  std::vector<T> partial(nblocks, identity);
  ParallelFor(
      0, nblocks,
      [&](size_t b) {
        const size_t lo = begin + b * block;
        const size_t hi = std::min(lo + block, end);
        T acc = identity;
        for (size_t i = lo; i < hi; ++i) acc = combine(acc, f(i));
        partial[b] = acc;
      },
      1);
  T acc = identity;
  for (const T& p : partial) acc = combine(acc, p);
  return acc;
}

// Sum of f(i) over [begin, end).
template <typename T, typename F>
T ParallelSum(size_t begin, size_t end, F&& f) {
  return ParallelReduce(
      begin, end, T{0}, f, [](T a, T b) { return a + b; });
}

// Counts indices i in [begin, end) with pred(i) true.
template <typename Pred>
size_t ParallelCount(size_t begin, size_t end, Pred&& pred) {
  return ParallelSum<size_t>(begin, end,
                             [&](size_t i) { return pred(i) ? 1u : 0u; });
}

// Exclusive prefix sum over data[0..n); returns the total. data is updated
// in place: data[i] becomes sum of the original data[0..i).
template <typename T>
T ScanExclusive(T* data, size_t n) {
  if (n == 0) return T{0};
  const size_t block = internal::BlockSizeFor(n);
  const size_t nblocks = internal::NumBlocks(n, block);
  if (nblocks <= 1) {
    T acc{0};
    for (size_t i = 0; i < n; ++i) {
      T v = data[i];
      data[i] = acc;
      acc += v;
    }
    return acc;
  }
  std::vector<T> sums(nblocks);
  ParallelFor(
      0, nblocks,
      [&](size_t b) {
        const size_t lo = b * block;
        const size_t hi = std::min(lo + block, n);
        T acc{0};
        for (size_t i = lo; i < hi; ++i) acc += data[i];
        sums[b] = acc;
      },
      1);
  T total{0};
  for (size_t b = 0; b < nblocks; ++b) {
    T v = sums[b];
    sums[b] = total;
    total += v;
  }
  ParallelFor(
      0, nblocks,
      [&](size_t b) {
        const size_t lo = b * block;
        const size_t hi = std::min(lo + block, n);
        T acc = sums[b];
        for (size_t i = lo; i < hi; ++i) {
          T v = data[i];
          data[i] = acc;
          acc += v;
        }
      },
      1);
  return total;
}

// Stable parallel pack: emits f(i) for each i in [0, n) with pred(i) true,
// preserving index order. Returns the packed vector.
template <typename Out, typename Pred, typename F>
std::vector<Out> ParallelPack(size_t n, Pred&& pred, F&& f) {
  if (n == 0) return {};
  const size_t block = internal::BlockSizeFor(n);
  const size_t nblocks = internal::NumBlocks(n, block);
  std::vector<size_t> counts(nblocks);
  ParallelFor(
      0, nblocks,
      [&](size_t b) {
        const size_t lo = b * block;
        const size_t hi = std::min(lo + block, n);
        size_t c = 0;
        for (size_t i = lo; i < hi; ++i) c += pred(i) ? 1 : 0;
        counts[b] = c;
      },
      1);
  const size_t total = ScanExclusive(counts.data(), counts.size());
  std::vector<Out> out(total);
  ParallelFor(
      0, nblocks,
      [&](size_t b) {
        const size_t lo = b * block;
        const size_t hi = std::min(lo + block, n);
        size_t pos = counts[b];
        for (size_t i = lo; i < hi; ++i) {
          if (pred(i)) out[pos++] = f(i);
        }
      },
      1);
  return out;
}

// Stable filter of indices satisfying pred.
template <typename Pred>
std::vector<size_t> ParallelFilterIndices(size_t n, Pred&& pred) {
  return ParallelPack<size_t>(n, pred, [](size_t i) { return i; });
}

// Parallel merge-based sort. Sorts [data, data+n) with comparator `less`.
template <typename T, typename Less>
void ParallelSort(T* data, size_t n, Less less) {
  const size_t workers = NumWorkers();
  if (workers <= 1 || n < 1u << 14 || ThreadPool::InWorker()) {
    std::sort(data, data + n, less);
    return;
  }
  // Split into one run per worker, sort runs in parallel, then merge pairs.
  size_t runs = workers;
  std::vector<size_t> bounds(runs + 1);
  for (size_t r = 0; r <= runs; ++r) bounds[r] = n * r / runs;
  ParallelFor(
      0, runs,
      [&](size_t r) { std::sort(data + bounds[r], data + bounds[r + 1], less); },
      1);
  std::vector<T> buffer(n);
  T* src = data;
  T* dst = buffer.data();
  while (runs > 1) {
    const size_t pairs = runs / 2;
    std::vector<size_t> new_bounds((runs + 1) / 2 + 1);
    ParallelFor(
        0, pairs,
        [&](size_t p) {
          std::merge(src + bounds[2 * p], src + bounds[2 * p + 1],
                     src + bounds[2 * p + 1], src + bounds[2 * p + 2],
                     dst + bounds[2 * p], less);
        },
        1);
    if (runs % 2 == 1) {
      std::copy(src + bounds[runs - 1], src + bounds[runs],
                dst + bounds[runs - 1]);
    }
    for (size_t p = 0; p < pairs; ++p) new_bounds[p] = bounds[2 * p];
    if (runs % 2 == 1) new_bounds[pairs] = bounds[runs - 1];
    new_bounds[(runs + 1) / 2] = n;
    bounds = std::move(new_bounds);
    runs = (runs + 1) / 2;
    std::swap(src, dst);
  }
  if (src != data) std::copy(src, src + n, data);
}

template <typename T>
void ParallelSort(T* data, size_t n) {
  ParallelSort(data, n, std::less<T>());
}

template <typename T, typename Less>
void ParallelSort(std::vector<T>& v, Less less) {
  ParallelSort(v.data(), v.size(), less);
}

template <typename T>
void ParallelSort(std::vector<T>& v) {
  ParallelSort(v.data(), v.size(), std::less<T>());
}

// For labels in [0, labels.size()): the smallest index carrying each label,
// min_of[l] = min{i : labels[i] == l}, and the largest T for a label no
// index carries. Gathering min_of[labels[i]] relabels every index by the
// minimum of its class, the canonical min-rooted labeling. One WriteMin
// per index.
template <typename T>
std::vector<T> MinIndexPerLabel(const std::vector<T>& labels) {
  std::vector<T> min_of(labels.size(), std::numeric_limits<T>::max());
  ParallelFor(0, labels.size(), [&](size_t i) {
    WriteMin(&min_of[labels[i]], static_cast<T>(i));
  });
  return min_of;
}

}  // namespace connectit

#endif  // CONNECTIT_PARALLEL_PRIMITIVES_H_
