// Shared infrastructure for the paper-reproduction bench binaries.
//
// Each bench binary regenerates one table or figure of the paper's
// evaluation (see ARCHITECTURE.md "Where the paper maps onto the tree" for
// the index) and prints it in the paper's row/series shape. The graph suite
// substitutes synthetic graphs for the paper's inputs;
// CONNECTIT_BENCH_SCALE=large grows them.

#ifndef CONNECTIT_BENCH_BENCH_COMMON_H_
#define CONNECTIT_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/registry.h"
#include "src/graph/builder.h"
#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/graph_handle.h"
#include "src/graph/sharded.h"

namespace connectit::bench {

inline bool LargeScale() {
  const char* env = std::getenv("CONNECTIT_BENCH_SCALE");
  return env != nullptr && std::strcmp(env, "large") == 0;
}

// CONNECTIT_BENCH_REPR=compressed|coo|sharded|mapped runs registry-driven
// benches on the byte-coded, COO edge-list, sharded-CSR, or mmap-container
// representation instead of plain CSR — same variants, same sweep,
// different GraphHandle. On COO, edge-centric variants without sampling run
// natively (no CSR rebuild inside the run); on sharded and mapped,
// everything is native (mapped serves zero-copy from a temp .cgc).
inline GraphRepresentation BenchRepr() {
  const char* env = std::getenv("CONNECTIT_BENCH_REPR");
  if (env == nullptr || std::strcmp(env, "csr") == 0) {
    return GraphRepresentation::kCsr;
  }
  if (std::strcmp(env, "compressed") == 0) {
    return GraphRepresentation::kCompressed;
  }
  if (std::strcmp(env, "coo") == 0) return GraphRepresentation::kCoo;
  if (std::strcmp(env, "sharded") == 0) return GraphRepresentation::kSharded;
  if (std::strcmp(env, "mapped") == 0) return GraphRepresentation::kMapped;
  // Fail fast: silently benchmarking CSR under a misspelled value would
  // mislabel every number in the run.
  std::fprintf(stderr,
               "error: unknown CONNECTIT_BENCH_REPR=%s "
               "(expected csr, compressed, coo, sharded, or mapped)\n",
               env);
  std::exit(2);
}

// Shard count for CONNECTIT_BENCH_REPR=sharded runs:
// CONNECTIT_BENCH_SHARDS=<P> overrides the default (hardware concurrency).
// Fail fast on anything but a clean positive integer — like BenchRepr, a
// silently misparsed value would mislabel every number in the run.
inline size_t BenchShards() {
  const char* env = std::getenv("CONNECTIT_BENCH_SHARDS");
  if (env == nullptr) return 0;  // ShardedGraph::Partition's default
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value <= 0) {
    std::fprintf(stderr, "error: CONNECTIT_BENCH_SHARDS=%s is not a positive "
                 "shard count\n", env);
    std::exit(2);
  }
  return static_cast<size_t>(value);
}

// The handle a registry-driven bench should pass to Variant::run for this
// suite graph, in the given representation: a plain view, an owning
// byte-coded encoding, an owning COO edge list extracted from it, or an
// owning sharded partition of it.
inline GraphHandle MakeBenchHandle(GraphRepresentation repr,
                                   const Graph& graph) {
  switch (repr) {
    case GraphRepresentation::kCompressed: return GraphHandle::Compress(graph);
    case GraphRepresentation::kCoo:
      return GraphHandle::Adopt(ExtractEdges(graph));
    case GraphRepresentation::kSharded:
      return GraphHandle::Shard(graph, BenchShards());
    case GraphRepresentation::kMapped:
      return GraphHandle::MapTempOrDie(graph);
    case GraphRepresentation::kCsr: break;
  }
  return GraphHandle(graph);
}

// As above, in the representation CONNECTIT_BENCH_REPR selects.
inline GraphHandle MakeBenchHandle(const Graph& graph) {
  return MakeBenchHandle(BenchRepr(), graph);
}

// Wall-clock seconds for one invocation of fn.
inline double TimeIt(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

// Minimum over `reps` invocations (the usual benchmarking convention).
inline double TimeBest(const std::function<void()>& fn, int reps = 3) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) best = std::min(best, TimeIt(fn));
  return best;
}

// The median and quartiles of repeated wall-clock times. On a shared host
// one run of a row can move by 2x, so a table reports the middle of several
// runs and the band around it.
struct Timing {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

// Times `runs` invocations of fn. Quartiles interpolate linearly between
// the sorted runs (for 5 runs: the 2nd and 4th).
inline Timing Repeat(const std::function<void()>& fn, int runs = 5) {
  std::vector<double> times;
  for (int i = 0; i < runs; ++i) times.push_back(TimeIt(fn));
  std::sort(times.begin(), times.end());
  const auto quantile = [&](double q) {
    const double at = q * static_cast<double>(times.size() - 1);
    const size_t lo = static_cast<size_t>(at);
    const size_t hi = std::min(lo + 1, times.size() - 1);
    return times[lo] + (at - static_cast<double>(lo)) * (times[hi] - times[lo]);
  };
  return {quantile(0.5), quantile(0.25), quantile(0.75)};
}

struct BenchGraph {
  std::string name;
  Graph graph;
};

// The bench suite, mirroring the regimes of the paper's Table 2 inputs:
//   road      — high-diameter sparse grid           (road_usa analog)
//   social    — skewed low-diameter RMAT            (LiveJournal/Twitter)
//   dense     — uniform-degree denser Erdos-Renyi   (com-Orkut analog)
//   ba        — preferential attachment             (Friendster analog)
//   web       — many components + one massive blob  (ClueWeb/Hyperlink)
inline std::vector<BenchGraph> Suite() {
  const int s = LargeScale() ? 4 : 1;
  std::vector<BenchGraph> suite;
  suite.push_back({"road", GenerateGrid(512 * s, 512 * s)});
  suite.push_back(
      {"social", GenerateRmat(262144u * s, 2097152u * s, /*seed=*/42)});
  suite.push_back(
      {"dense", GenerateErdosRenyi(131072u * s, 2097152u * s, /*seed=*/43)});
  suite.push_back(
      {"ba", GenerateBarabasiAlbert(131072u * s, 12, /*seed=*/44)});
  suite.push_back({"web", GenerateComponentMixture(262144u * s, 24,
                                                   /*seed=*/45,
                                                   /*edges_per_vertex=*/16)});
  return suite;
}

// A smaller suite for exhaustive per-variant sweeps.
inline std::vector<BenchGraph> SmallSuite() {
  const int s = LargeScale() ? 4 : 1;
  std::vector<BenchGraph> suite;
  suite.push_back({"road", GenerateGrid(256 * s, 256 * s)});
  suite.push_back(
      {"social", GenerateRmat(65536u * s, 524288u * s, /*seed=*/42)});
  return suite;
}

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintTitle(const char* title) {
  std::printf("\n");
  PrintRule();
  std::printf("%s\n", title);
  PrintRule();
}

// ---- streaming harness (shared by the bench_stream_* binaries and
// bench_stinger_compare) ----

// Node count for the synthetic update streams, scaled like the suite.
inline NodeId StreamNodes(NodeId large = 1u << 20, NodeId small = 1u << 16) {
  return LargeScale() ? large : small;
}

// Cuts `edges` into consecutive batches of `batch_size` (last may be short).
inline std::vector<std::vector<Edge>> SliceBatches(
    const std::vector<Edge>& edges, size_t batch_size) {
  std::vector<std::vector<Edge>> batches;
  for (size_t start = 0; start < edges.size(); start += batch_size) {
    const size_t end = std::min(start + batch_size, edges.size());
    batches.emplace_back(edges.begin() + start, edges.begin() + end);
  }
  return batches;
}

// Applies every batch as pure updates; returns total wall-clock seconds.
inline double DriveBatches(StreamingConnectivity& alg,
                           const std::vector<std::vector<Edge>>& batches) {
  return TimeIt([&] {
    for (const std::vector<Edge>& batch : batches) alg.ProcessBatch(batch, {});
  });
}

// Splits an update stream for the static-to-streaming handoff: everything
// but the last `holdout` fraction is the bulk-loaded base graph; the tail
// arrives as streamed batches.
struct HandoffSplit {
  EdgeList base;
  std::vector<Edge> tail;
};

inline HandoffSplit SplitForHandoff(const EdgeList& stream,
                                    double holdout = 0.25) {
  HandoffSplit split;
  const size_t cut =
      stream.size() - static_cast<size_t>(stream.size() * holdout);
  split.base.num_nodes = stream.num_nodes;
  split.base.edges.assign(stream.edges.begin(), stream.edges.begin() + cut);
  split.tail.assign(stream.edges.begin() + cut, stream.edges.end());
  return split;
}

// The GraphHandle a warm-start static pass should run on, honoring
// CONNECTIT_BENCH_REPR: a COO view of `base` (native for edge-centric
// variants), an owning CSR, an owning byte-coded CSR, an owning sharded
// partition, or a zero-copy mapping of a temp .cgc container.
inline GraphHandle MakeSeedHandle(const EdgeList& base) {
  switch (BenchRepr()) {
    case GraphRepresentation::kCompressed:
      return GraphHandle::Compress(BuildGraph(base));
    case GraphRepresentation::kCsr:
      return GraphHandle::Adopt(BuildGraph(base));
    case GraphRepresentation::kSharded:
      return GraphHandle::Shard(BuildGraph(base), BenchShards());
    case GraphRepresentation::kMapped:
      return GraphHandle::MapTempOrDie(BuildGraph(base));
    case GraphRepresentation::kCoo: break;
  }
  return GraphHandle(base);
}

// Cold-vs-seeded comparison for one variant over one update stream: the
// cold structure streams base+tail in batches from an empty start; the
// seeded structure bulk-loads the base with the variant's static pass
// (StreamingSeed::FromStatic) and streams only the tail.
struct HandoffTiming {
  double cold_total = 0;   // cold: base + tail, all batched
  double static_pass = 0;  // seeded: bulk static pass over the base
  double seeded_tail = 0;  // seeded: streaming the tail batches
  double seeded_total() const { return static_pass + seeded_tail; }
};

inline HandoffTiming MeasureHandoff(const Variant& v, const EdgeList& stream,
                                    size_t batch_size,
                                    double holdout = 0.25) {
  const HandoffSplit split = SplitForHandoff(stream, holdout);
  const auto base_batches = SliceBatches(split.base.edges, batch_size);
  const auto tail_batches = SliceBatches(split.tail, batch_size);
  HandoffTiming t;
  {
    auto cold = v.make_streaming(StreamingSeed::Cold(stream.num_nodes));
    t.cold_total = DriveBatches(*cold, base_batches) +
                   DriveBatches(*cold, tail_batches);
  }
  {
    std::unique_ptr<StreamingConnectivity> seeded;
    t.static_pass = TimeIt([&] {
      // Building the seed representation (BuildGraph / byte-coding for
      // csr/compressed, free for the COO view) is timed too: the seeded
      // column must carry every cost the cold path avoids.
      const GraphHandle handle = MakeSeedHandle(split.base);
      seeded = v.make_streaming(StreamingSeed::FromStatic(handle));
    });
    t.seeded_tail = DriveBatches(*seeded, tail_batches);
  }
  return t;
}

// Prints one row of a cold-vs-seeded table (see MeasureHandoff).
inline void PrintHandoffRow(const char* label, const HandoffTiming& t) {
  std::printf("%-44s %12.3e %12.3e %12.3e %12.3e %7.2fx\n", label,
              t.cold_total, t.static_pass, t.seeded_tail, t.seeded_total(),
              t.cold_total / t.seeded_total());
}

inline void PrintHandoffHeader() {
  std::printf("%-44s %12s %12s %12s %12s %8s\n", "Algorithm", "Cold(s)",
              "Static(s)", "Tail(s)", "Seeded(s)", "Win");
  PrintRule(110);
}


}  // namespace connectit::bench

#endif  // CONNECTIT_BENCH_BENCH_COMMON_H_
