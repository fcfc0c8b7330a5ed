// Ablation benches for ConnectIt's design choices:
//   A1  IdentifyFrequent: sampled estimator vs exact count
//   A2  two-phase execution: frequent-component skip on vs off
//   A3  streaming batch locality: unpermuted vs permuted update order
//       (the paper's LLC analysis of streaming, §C.3)
//   A4  ParallelFor grain sensitivity on the finish loop
//   A5  thread scaling of the fastest variant
//   A6  static-to-streaming handoff: cold streaming vs seeded warm start

#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/core/connectit.h"
#include "src/core/frequent.h"
#include "src/core/registry.h"
#include "src/graph/builder.h"
#include "src/parallel/random.h"

int main() {
  using namespace connectit;
  const auto suite = bench::Suite();
  const Variant* fastest = &DefaultVariant();

  // ---- A1: IdentifyFrequent sampled vs exact ----
  bench::PrintTitle("Ablation A1: IdentifyFrequent — sampled vs exact");
  std::printf("%-10s %14s %14s %10s\n", "Graph", "Sampled(s)", "Exact(s)",
              "Agree");
  for (const auto& [name, graph] : suite) {
    std::vector<NodeId> labels = IdentityLabels(graph.num_nodes());
    KOutSample(graph, KOutOptions{}, labels);
    FrequentResult sampled;
    FrequentResult exact;
    const double ts =
        bench::TimeBest([&] { sampled = IdentifyFrequentSampled(labels); }, 3);
    const double te =
        bench::TimeBest([&] { exact = IdentifyFrequentExact(labels); }, 3);
    std::printf("%-10s %14.3e %14.3e %10s\n", name.c_str(), ts, te,
                sampled.label == exact.label ? "yes" : "NO");
  }

  // ---- A2: two-phase skip on/off ----
  bench::PrintTitle(
      "Ablation A2: finish-phase frequent-component skip (two-phase "
      "execution) on vs off");
  std::printf("%-10s %14s %14s %10s\n", "Graph", "Skip on(s)", "Skip off(s)",
              "Benefit");
  for (const auto& [name, graph] : suite) {
    using Finish = UnionFindFinish<UniteOption::kRemCas, FindOption::kNaive,
                                   SpliceOption::kSplitOne>;
    const double with_skip = bench::TimeBest(
        [&] { RunConnectivity<Finish>(graph, SamplingConfig::KOut()); }, 2);
    // Skip off: sample, then pretend no frequent component was found.
    const double without_skip = bench::TimeBest(
        [&] {
          std::vector<NodeId> labels = IdentityLabels(graph.num_nodes());
          KOutSampleT(graph, KOutOptions{}, labels);
          Finish::FinishComponents(graph, labels, kInvalidNode);
        },
        2);
    std::printf("%-10s %14.3e %14.3e %9.2fx\n", name.c_str(), with_skip,
                without_skip, without_skip / with_skip);
  }

  // ---- A3: streaming batch order ----
  bench::PrintTitle(
      "Ablation A3: streaming throughput — unpermuted vs permuted batches");
  std::printf("%-10s %16s %16s %8s\n", "Graph", "Unpermuted(/s)",
              "Permuted(/s)", "Ratio");
  for (const auto& [name, graph] : suite) {
    EdgeList stream = ExtractEdges(graph);
    const double t_plain = bench::TimeBest(
        [&] {
          auto alg = fastest->make_streaming(StreamingSeed::Cold(stream.num_nodes));
          alg->ProcessBatch(stream.edges, {});
        },
        2);
    // Permute the update order.
    EdgeList shuffled = stream;
    const std::vector<NodeId> perm = RandomPermutation(
        static_cast<NodeId>(shuffled.size()), /*seed=*/3);
    std::vector<Edge> permuted(shuffled.size());
    for (size_t i = 0; i < shuffled.size(); ++i) {
      permuted[i] = shuffled.edges[perm[i]];
    }
    shuffled.edges = std::move(permuted);
    const double t_perm = bench::TimeBest(
        [&] {
          auto alg = fastest->make_streaming(StreamingSeed::Cold(shuffled.num_nodes));
          alg->ProcessBatch(shuffled.edges, {});
        },
        2);
    std::printf("%-10s %16.3e %16.3e %7.2fx\n", name.c_str(),
                stream.size() / t_plain, stream.size() / t_perm,
                t_perm / t_plain);
  }

  // ---- A4: grain sensitivity ----
  bench::PrintTitle(
      "Ablation A4: ParallelFor grain for the unite loop (social graph)");
  const Graph& social = suite[1].graph;
  std::printf("%10s %14s\n", "Grain", "Time(s)");
  for (const size_t grain : {1u, 16u, 64u, 256u, 4096u}) {
    const double t = bench::TimeBest(
        [&] {
          std::vector<NodeId> labels = IdentityLabels(social.num_nodes());
          Dsu<UniteOption::kRemCas, FindOption::kNaive,
              SpliceOption::kSplitOne>
              dsu(labels.data(), social.num_nodes());
          ParallelFor(
              0, social.num_nodes(),
              [&](size_t ui) {
                const NodeId u = static_cast<NodeId>(ui);
                for (NodeId v : social.neighbors(u)) {
                  if (u < v) dsu.Unite(u, v);
                }
              },
              grain);
        },
        2);
    std::printf("%10zu %14.3e\n", grain, t);
  }

  // ---- A5: thread scaling ----
  bench::PrintTitle("Ablation A5: thread scaling (fastest variant, social)");
  std::printf("%10s %14s %10s\n", "Workers", "Time(s)", "Speedup");
  const size_t original = NumWorkers();
  const size_t max_workers = std::max<size_t>(original, 4);
  double base = 0;
  for (size_t w = 1; w <= max_workers; w *= 2) {
    SetNumWorkers(w);
    const double t =
        bench::TimeBest([&] { fastest->run(social, SamplingConfig::KOut()); },
                        2);
    if (w == 1) base = t;
    std::printf("%10zu %14.3e %9.2fx\n", w, t, base / t);
  }
  SetNumWorkers(original);

  // ---- A6: static-to-streaming handoff ----
  bench::PrintTitle(
      "Ablation A6: cold streaming vs static pass + seeded streaming "
      "(25% tail, 10k batches)");
  bench::PrintHandoffHeader();
  for (const auto& [name, graph] : suite) {
    const EdgeList stream = ExtractEdges(graph);
    bench::PrintHandoffRow(name.c_str(),
                           bench::MeasureHandoff(*fastest, stream,
                                                 /*batch_size=*/10000));
  }
  std::printf(
      "\nExpected shape: for Rem's variants the seeded total (static pass +\n"
      "tail) roughly ties cold streaming — their streaming form is the\n"
      "static unite loop already; the handoff win appears for the other\n"
      "families (see bench_stream_throughput's handoff table).\n");
  return 0;
}
