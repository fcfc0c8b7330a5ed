// Reproduces Figures 6, 7, 9, 10: Max Path Length and Total Path Length vs
// running time for the union-find variants, plus the parent-array access
// proxy standing in for LLC misses / memory traffic. Also
// prints the Pearson correlation of each statistic with running time, the
// paper's headline analysis numbers (TPL ~0.738, MPL ~0.344).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/registry.h"
#include "src/stats/counters.h"

namespace {

double Pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = x.size();
  double sx = 0, sy = 0;
  for (size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n, my = sy / n;
  double num = 0, dx = 0, dy = 0;
  for (size_t i = 0; i < n; ++i) {
    num += (x[i] - mx) * (y[i] - my);
    dx += (x[i] - mx) * (x[i] - mx);
    dy += (y[i] - my) * (y[i] - my);
  }
  return num / std::sqrt(dx * dy);
}

}  // namespace

int main() {
  using namespace connectit;
  const auto suite = bench::SmallSuite();

  bench::PrintTitle(
      "Figures 6/7/9/10: path-length and access statistics vs running time "
      "(union-find, No Sampling)");
  std::printf("%-44s %-8s %10s %8s %14s %16s\n", "Variant", "Graph",
              "Time(s)", "MPL", "TPL", "ParentAccesses");

  std::vector<double> times, mpls, tpls, accesses;
  for (const Variant* v : VariantsOfFamily(AlgorithmFamily::kUnionFind)) {
    for (const auto& bg : suite) {
      stats::ScopedEnable scope;
      const double t = bench::TimeIt([&] { v->run(bg.graph, {}); });
      const stats::Snapshot s = stats::Read();
      std::printf("%-44s %-8s %10.4e %8llu %14llu %16llu\n", v->name.c_str(),
                  bg.name.c_str(), t,
                  static_cast<unsigned long long>(s.max_path_length),
                  static_cast<unsigned long long>(s.total_path_length),
                  static_cast<unsigned long long>(s.parent_reads +
                                                  s.parent_writes));
      times.push_back(t);
      mpls.push_back(static_cast<double>(s.max_path_length));
      tpls.push_back(static_cast<double>(s.total_path_length));
      accesses.push_back(
          static_cast<double>(s.parent_reads + s.parent_writes));
    }
  }
  bench::PrintRule();
  std::printf("Pearson correlation with running time:\n");
  std::printf("  Total Path Length : %.3f   (paper: 0.738)\n",
              Pearson(tpls, times));
  std::printf("  Max Path Length   : %.3f   (paper: 0.344, weaker)\n",
              Pearson(mpls, times));
  std::printf("  Parent accesses   : %.3f   (paper LLC misses: 0.797)\n",
              Pearson(accesses, times));
  std::printf(
      "\nExpected shape: TPL and memory accesses predict running time much\n"
      "better than MPL does.\n");
  return 0;
}
