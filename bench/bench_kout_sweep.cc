// Reproduces Figures 22, 23, 24: the four k-out sampling strategies
// (afforest / pure / hybrid / maxdeg) swept over k — sampling time,
// fraction of inter-component edges (log-interpretable), and coverage.
//
// --out=PATH also writes every (graph, strategy, k) cell as an entry named
// "<graph>/<strategy>/k<k>" for tools/bench_trajectory.py append.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "src/core/connectit.h"
#include "src/core/sampling.h"

int main(int argc, char** argv) {
  using namespace connectit;
  const char* out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  const auto suite = bench::Suite();
  const KOutVariant variants[] = {KOutVariant::kAfforest, KOutVariant::kPure,
                                  KOutVariant::kHybrid,
                                  KOutVariant::kMaxDegree};

  bench::PrintTitle(
      "Figures 22-24: k-out sampling sweep over k and strategy (time / "
      "inter-component fraction / coverage)");
  std::printf("%-10s %-14s %3s %12s %12s %12s\n", "Graph", "Strategy", "k",
              "Time(s)", "PctIC", "Coverage");
  std::string rows;
  for (const auto& [name, graph] : suite) {
    for (const KOutVariant variant : variants) {
      for (uint32_t k = 1; k <= 5; ++k) {
        KOutOptions options;
        options.variant = variant;
        options.k = k;
        std::vector<NodeId> labels;
        const double t = bench::TimeBest(
            [&] {
              labels = IdentityLabels(graph.num_nodes());
              KOutSample(graph, options, labels);
            },
            5);
        const SamplingQuality q = MeasureSamplingQuality(graph, labels);
        const std::string strategy(ToString(variant));
        std::printf("%-10s %-14s %3u %12.4e %11.5f%% %11.2f%%\n",
                    name.c_str(), strategy.c_str(), k, t,
                    100 * q.intercomponent_fraction, 100 * q.coverage);
        char row[256];
        std::snprintf(row, sizeof(row),
                      "%s    {\"name\": \"%s/%s/k%u\", \"sampling_s\": %.6g, "
                      "\"coverage\": %.10g, "
                      "\"intercomponent_fraction\": %.10g}",
                      rows.empty() ? "" : ",\n", name.c_str(),
                      strategy.c_str(), k, t, q.coverage,
                      q.intercomponent_fraction);
        rows += row;
      }
    }
  }
  std::printf(
      "\nExpected shape (paper): k=1 performs poorly for all schemes except\n"
      "maxdeg on power-law graphs; for k>=2 only a tiny fraction of\n"
      "inter-component edges remains (far below the n/k bound); maxdeg is\n"
      "the most expensive scheme; hybrid tracks afforest at k=1 and pure at\n"
      "larger k.\n");
  if (out != nullptr) {
    FILE* f = std::fopen(out, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out);
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"kout_sweep\",\n  \"workers\": %zu,\n"
                 "  \"cells\": [\n%s\n  ]\n}\n",
                 NumWorkers(), rows.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out);
  }
  return 0;
}
