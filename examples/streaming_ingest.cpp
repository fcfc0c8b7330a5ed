// Streaming ingestion scenario (paper §1: insertion-heavy workloads like
// Twitter's follow stream), in the bulk-load-then-stream shape real
// deployments use: yesterday's graph is loaded with one fast static pass,
// today's edges then arrive in batches with connectivity queries mixed in.
// The whole lifecycle is one Connectivity object: Build (bulk) -> Stream
// (handoff of the built labeling) -> Insert (batches + queries, answered
// after each batch's updates), with thread-safe reads live throughout.

#include <chrono>
#include <cstdio>

#include "src/core/connectivity_index.h"
#include "src/graph/generators.h"
#include "src/parallel/random.h"

int main() {
  using namespace connectit;

  const NodeId n = 1u << 18;

  // Simulated follow stream: RMAT edges. The first 75% is "yesterday's
  // graph" (bulk-loaded), the rest arrives in batches with 10% connectivity
  // queries mixed into every batch.
  const EdgeList stream = GenerateRmatEdges(n, 8ull * n, /*seed=*/99);
  const size_t bulk = stream.size() * 3 / 4;
  EdgeList base;
  base.num_nodes = n;
  base.edges.assign(stream.edges.begin(), stream.edges.begin() + bulk);

  // Spec::Auto on a COO handle keeps everything edge-native: the default
  // (streamable) variant, no sampling, no representation change — the
  // static pass never builds a CSR.
  const GraphHandle base_handle(base);
  Connectivity index(Connectivity::Spec::Auto(base_handle, /*streaming=*/true));
  auto t0 = std::chrono::steady_clock::now();
  index.Build(base_handle);  // static pass over yesterday's graph
  index.Stream();            // its labeling is where the batches start
  const double bulk_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("bulk-loaded %zu edges in %.3f s (%.2e edges/s, static pass)\n",
              base.size(), bulk_seconds, base.size() / bulk_seconds);

  const size_t batch_size = 100000;
  Rng rng(1);
  std::printf("ingesting remaining %zu edges in batches of %zu...\n",
              stream.size() - bulk, batch_size);
  size_t total_queries = 0;
  size_t connected_answers = 0;
  double total_seconds = 0;
  for (size_t start = bulk; start < stream.size(); start += batch_size) {
    const size_t end = std::min(start + batch_size, stream.size());
    const std::vector<Edge> updates(stream.edges.begin() + start,
                                    stream.edges.begin() + end);
    std::vector<Edge> queries(updates.size() / 10);
    for (size_t q = 0; q < queries.size(); ++q) {
      queries[q] = {static_cast<NodeId>(rng.GetBounded(start + 2 * q, n)),
                    static_cast<NodeId>(rng.GetBounded(start + 2 * q + 1, n))};
    }
    t0 = std::chrono::steady_clock::now();
    const std::vector<uint8_t> answers = index.Insert(updates, queries);
    total_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    total_queries += answers.size();
    for (uint8_t a : answers) connected_answers += a;
  }
  std::printf("ingest throughput : %.2e updates/s\n",
              static_cast<double>(stream.size() - bulk) / total_seconds);
  std::printf("queries answered  : %zu (%.1f%% connected)\n", total_queries,
              100.0 * connected_answers / total_queries);
  std::printf("components so far : %u\n", index.NumComponents());

  // For reference: the cold alternative streams the bulk edges through
  // batches instead of the static pass (Stream(n) = n isolated vertices).
  Connectivity cold;
  cold.Stream(n);
  t0 = std::chrono::steady_clock::now();
  for (size_t start = 0; start < bulk; start += batch_size) {
    const size_t end = std::min(start + batch_size, bulk);
    cold.Insert(std::vector<Edge>(stream.edges.begin() + start,
                                  stream.edges.begin() + end));
  }
  const double cold_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("cold bulk ingest  : %.3f s (warm static pass: %.3f s)\n",
              cold_seconds, bulk_seconds);
  return 0;
}
