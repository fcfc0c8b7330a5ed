// Command-line connectivity tool: the "downstream user" entry point,
// built on the connectit::Connectivity serving façade (the variant name is
// parsed into a typed descriptor; unknown names die with a nearest-match
// suggestion).
//
// Usage:
//   connectit_cli [--repr=<csr|compressed|coo|sharded|mapped>] [--shards=<P>]
//                 [--stream=<B>x<S>] [--erase=<E>]
//                 <edge-list-file|graph.cgc|graph.bin> [variant] [sampling]
//   connectit_cli [--repr=...] [--stream=<B>x<S>] --generate
//                 <rmat|grid|ba|er> <n> [variant] [sampling]
//   connectit_cli --list
//
// variant:  any registry name (default: DefaultVariant(), the paper's
//           recommended Union-Rem-CAS;FindNaive;SplitAtomicOne)
// sampling: none | kout | bfs | ldd   (default kout)
// --repr=compressed (alias --compressed): byte-code the graph and run
//               connectivity directly on the compressed representation.
// --repr=coo:   keep the input as a COO edge list. Edge-centric variants
//               with sampling=none run natively on it — the printed
//               "csr materializations" line stays 0, proving no CSR was
//               built; adjacency-dependent runs materialize (and cache)
//               one CSR inside the handle.
// --repr=sharded [--shards=P]: partition the CSR into P vertex-contiguous
//               shards (default: hardware concurrency) and run on the
//               shards. Every variant × sampling combination is native on
//               this representation — the printed "flat csr
//               materializations" line stays 0 for every run.
// --repr=mapped: serve the graph zero-copy from an mmap'd versioned
//               container (src/graph/container.h). A .cgc/.bin input file
//               is mapped directly — the cold path: no edge list is parsed
//               and no CSR is built in memory. Text or generated inputs
//               are written to an unlinked temp container first
//               (GraphHandle::MapTempOrDie). Every variant × sampling
//               combination runs off the mapping — the printed "mapped csr
//               materializations" line stays 0 for every run.
// --stream=<B>x<S>: static-to-streaming handoff mode. The last B*S edges
//               are held out; the variant's static pass runs over the rest
//               (on the chosen representation), Stream() hands its
//               labeling to batch mode, and the held-out edges are
//               inserted in B batches of S, each merging components in the
//               published snapshot. The final labeling is checked against
//               a full static run over all edges.
// --erase=<E> (with --stream): after the insert batches, delete the first
//               E distinct edges of the input in one Erase batch — the
//               fully dynamic path (spanning forest + replacement search,
//               see src/core/dynamic_forest.h). Prints the erase counters
//               and verifies the final labeling against a full static run
//               over the surviving edges.
// --numa=<off|auto|k>: memory-placement mode (src/parallel/numa.h).
//               off forces a single-node topology; auto re-detects
//               (sysfs, or CONNECTIT_NUMA_NODES for an emulated
//               partition); a number k emulates k nodes. The thread pool
//               rebinds its workers to the chosen topology, sharded
//               partitions place shard s on node s % k, and a flat
//               union-find variant with a registered NumaReplicated twin
//               is upgraded to it, so the printed locality counters
//               (local hint hops / cross-node root hops / hint
//               compressions) reflect the replicated parent arrays. Works
//               in static and --stream modes.
// The variant space is identical for every representation; the registry
// dispatches on the GraphHandle.
//
// Prints component statistics and, for road-style workflows, writes the
// densely renumbered component id per vertex to stdout with --labels.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/algo/verify.h"
#include "src/core/components.h"
#include "src/core/connectivity_index.h"
#include "src/graph/builder.h"
#include "src/graph/compressed.h"
#include "src/graph/generators.h"
#include "src/graph/graph_handle.h"
#include "src/graph/io.h"
#include "src/graph/sharded.h"
#include "src/parallel/numa.h"
#include "src/parallel/thread_pool.h"
#include "src/stats/counters.h"

namespace {

using namespace connectit;

SamplingConfig ParseSampling(const std::string& name) {
  if (name == "none") return SamplingConfig::None();
  if (name == "bfs") return SamplingConfig::Bfs();
  if (name == "ldd") return SamplingConfig::Ldd();
  return SamplingConfig::KOut();
}

// .cgc/.bin inputs are the versioned binary container; with --repr=mapped
// they are mmap'd directly instead of being parsed into an edge list.
bool IsContainerPath(const char* path) {
  const size_t len = std::strlen(path);
  return (len >= 4 && (std::strcmp(path + len - 4, ".cgc") == 0 ||
                       std::strcmp(path + len - 4, ".bin") == 0));
}

int Usage() {
  std::fprintf(stderr,
               "usage: connectit_cli "
               "[--repr=<csr|compressed|coo|sharded|mapped>] "
               "[--shards=<P>] [--stream=<batches>x<batch-size>] "
               "[--erase=<E>] [--numa=<off|auto|k>] "
               "<edge-list-file|graph.cgc> [variant] [sampling]\n"
               "       connectit_cli [--repr=...] [--stream=...] --generate "
               "<rmat|grid|ba|er> <n> [variant] [sampling]\n"
               "       connectit_cli --list\n"
               "(--compressed is an alias for --repr=compressed; --shards "
               "defaults to hardware concurrency; --erase requires "
               "--stream; --numa=k emulates k nodes; --repr=mapped maps a "
               ".cgc/.bin container file directly, or serves other inputs "
               "from an unlinked temp container)\n");
  return 2;
}

// --numa reporting: the active topology and how the pool's workers are
// spread across its nodes.
void PrintTopology() {
  const NumaTopology& topo = NumaTopology::Get();
  std::vector<size_t> workers_per_node(topo.num_nodes(), 0);
  const size_t workers = NumWorkers();
  for (size_t w = 0; w < workers; ++w) {
    ++workers_per_node[ThreadPool::Get().NodeOf(w)];
  }
  std::string spread;
  for (size_t node = 0; node < workers_per_node.size(); ++node) {
    if (!spread.empty()) spread += " ";
    spread += "node" + std::to_string(node) + ":" +
              std::to_string(workers_per_node[node]);
  }
  std::printf("numa: %zu node(s), backend=%s, workers [%s]\n",
              topo.num_nodes(), topo.backend(), spread.c_str());
}

void PrintShardPlacement(const ShardedGraph& sharded) {
  std::string placement;
  const size_t shown = std::min<size_t>(sharded.num_shards(), 16);
  for (size_t s = 0; s < shown; ++s) {
    if (!placement.empty()) placement += " ";
    placement += std::to_string(s) + "->" +
                 std::to_string(sharded.NodeOfShard(s));
  }
  if (shown < sharded.num_shards()) placement += " ...";
  std::printf("shard placement (shard->node, s %% %zu): %s\n",
              sharded.placement_nodes(), placement.c_str());
}

void PrintLocality(const stats::LocalitySnapshot& before) {
  const stats::LocalitySnapshot after = stats::ReadLocality();
  std::printf(
      "locality: %llu local hint hops, %llu cross-node root hops, "
      "%llu hint compressions\n",
      static_cast<unsigned long long>(after.local_find_depth -
                                      before.local_find_depth),
      static_cast<unsigned long long>(after.cross_node_find_depth -
                                      before.cross_node_find_depth),
      static_cast<unsigned long long>(after.cross_node_compressions -
                                      before.cross_node_compressions));
}

// With --numa active on a multi-node topology, a flat union-find variant
// whose NumaReplicated twin is registered is upgraded to the twin, so the
// run actually exercises the replicated parent arrays.
std::string MaybeReplicatedTwin(const std::string& variant_name) {
  const Variant* variant = FindVariant(variant_name);
  if (variant == nullptr) return variant_name;  // Spec::Algorithm will die
  if (variant->family != AlgorithmFamily::kUnionFind ||
      variant->descriptor.placement != PlacementOption::kFlat) {
    return variant_name;
  }
  VariantDescriptor twin = variant->descriptor;
  twin.placement = PlacementOption::kNumaReplicated;
  const Variant* replicated = FindVariant(twin);
  if (replicated == nullptr) return variant_name;  // e.g. the JTB variants
  std::printf("numa: upgraded %s -> %s\n", variant_name.c_str(),
              replicated->name.c_str());
  return replicated->name;
}

double Seconds(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --stream mode: static pass over all but the held-out tail (Build), hand
// its labeling to batch mode (Stream), stream the tail in batches (Insert),
// optionally delete edges (--erase, the fully dynamic path), and verify
// against a full static run over whatever edges survive.
int RunStreamMode(GraphRepresentation repr, size_t num_shards,
                  const EdgeList& all, const Connectivity::Spec& spec,
                  const std::string& sampling_name, size_t num_batches,
                  size_t batch_size, size_t num_erase, bool report_numa) {
  const stats::ServingSnapshot serving_before = stats::ReadServing();
  const stats::LocalitySnapshot locality_before = stats::ReadLocality();
  Connectivity index(spec);
  if (!index.variant().supports_streaming) {
    std::fprintf(stderr, "error: %s does not support streaming (try --list)\n",
                 index.variant().name.c_str());
    return 1;
  }
  const size_t held = std::min(num_batches * batch_size, all.size());
  EdgeList base;
  base.num_nodes = all.num_nodes;
  base.edges.assign(all.edges.begin(), all.edges.end() - held);

  // Both handles wrap the chosen representation; the CSR storage backs the
  // csr/compressed arms and must outlive them.
  Graph base_csr;
  Graph full_csr;
  GraphHandle base_handle;
  GraphHandle full_handle;
  switch (repr) {
    case GraphRepresentation::kCsr:
      base_csr = BuildGraph(base);
      full_csr = BuildGraph(all);
      base_handle = GraphHandle(base_csr);
      full_handle = GraphHandle(full_csr);
      break;
    case GraphRepresentation::kCompressed:
      base_csr = BuildGraph(base);
      full_csr = BuildGraph(all);
      base_handle = GraphHandle::Compress(base_csr);
      full_handle = GraphHandle::Compress(full_csr);
      break;
    case GraphRepresentation::kCoo:
      base_handle = GraphHandle(base);
      full_handle = GraphHandle(all);
      break;
    case GraphRepresentation::kSharded:
      base_handle = GraphHandle::Shard(BuildGraph(base), num_shards);
      full_handle = GraphHandle::Shard(BuildGraph(all), num_shards);
      break;
    case GraphRepresentation::kMapped:
      // Both static passes are served zero-copy from unlinked temp
      // containers; the streamed tail then goes through Insert.
      base_handle = GraphHandle::MapTempOrDie(BuildGraph(base));
      full_handle = GraphHandle::MapTempOrDie(BuildGraph(all));
      break;
  }

  std::printf("graph: n=%u, m=%zu (%zu bulk + %zu streamed), "
              "representation=%s\n",
              all.num_nodes, all.size(), base.size(), held,
              base_handle.representation_name());
  if (report_numa && repr == GraphRepresentation::kSharded) {
    PrintShardPlacement(*full_handle.sharded());
  }
  std::printf("algorithm: %s (+%s), handoff %zux%zu\n",
              index.variant().name.c_str(), sampling_name.c_str(),
              num_batches, batch_size);

  const uint64_t builds_before =
      (repr == GraphRepresentation::kSharded) ? ShardedCsrMaterializations()
      : (repr == GraphRepresentation::kMapped)
          ? MappedCsrMaterializations()
          : CooCsrMaterializations();
  auto t0 = std::chrono::steady_clock::now();
  index.Build(base_handle);  // static pass...
  index.Stream();            // ...whose labeling the batches start from
  const double static_seconds = Seconds(t0);
  std::printf("static pass: %.4f s (%.2e edges/s)\n", static_seconds,
              static_cast<double>(base.size()) / static_seconds);

  double stream_seconds = 0;
  size_t batches_run = 0;
  const size_t tail_start = all.size() - held;
  for (size_t b = 0; b < num_batches && tail_start + b * batch_size < all.size();
       ++b) {
    const size_t start = tail_start + b * batch_size;
    const size_t end = std::min(start + batch_size, all.size());
    const std::vector<Edge> batch(all.edges.begin() + start,
                                  all.edges.begin() + end);
    t0 = std::chrono::steady_clock::now();
    index.Insert(batch);
    stream_seconds += Seconds(t0);
    ++batches_run;
  }
  std::printf("streamed %zu batches: %.4f s (%.2e updates/s)\n", batches_run,
              stream_seconds,
              static_cast<double>(held) / std::max(stream_seconds, 1e-12));

  // --erase: delete the first num_erase distinct edges of the input in one
  // batch. The pick is deterministic so runs are reproducible; the erased
  // set is remembered for the verification below.
  std::set<std::pair<NodeId, NodeId>> erased_keys;
  if (num_erase > 0) {
    std::vector<Edge> erase_batch;
    for (const Edge& e : all.edges) {
      if (erase_batch.size() >= num_erase) break;
      if (e.u == e.v) continue;
      const std::pair<NodeId, NodeId> key = std::minmax(e.u, e.v);
      if (erased_keys.insert(key).second) erase_batch.push_back(e);
    }
    const stats::ServingSnapshot s0 = stats::ReadServing();
    t0 = std::chrono::steady_clock::now();
    index.Erase(erase_batch);
    const double erase_seconds = Seconds(t0);
    const stats::ServingSnapshot s1 = stats::ReadServing();
    std::printf(
        "erased %zu edges in %.4f s (%.2e deletions/s): "
        "%llu removed, %llu misses, %llu forest-edge hits, "
        "%llu replacement searches, %llu components split\n",
        erase_batch.size(), erase_seconds,
        static_cast<double>(erase_batch.size()) /
            std::max(erase_seconds, 1e-12),
        static_cast<unsigned long long>(s1.edges_erased - s0.edges_erased),
        static_cast<unsigned long long>(s1.erase_misses - s0.erase_misses),
        static_cast<unsigned long long>(s1.forest_edge_hits -
                                        s0.forest_edge_hits),
        static_cast<unsigned long long>(s1.replacement_searches -
                                        s0.replacement_searches),
        static_cast<unsigned long long>(s1.components_split -
                                        s0.components_split));
  }
  if (repr == GraphRepresentation::kCoo) {
    // Edge-centric variants with sampling=none stay COO-native end to end.
    std::printf("csr materializations: %llu\n",
                static_cast<unsigned long long>(CooCsrMaterializations() -
                                                builds_before));
  } else if (repr == GraphRepresentation::kSharded) {
    // Every pass is sharded-native: this must print 0.
    std::printf("flat csr materializations: %llu\n",
                static_cast<unsigned long long>(ShardedCsrMaterializations() -
                                                builds_before));
  } else if (repr == GraphRepresentation::kMapped) {
    // Every pass runs off the mapping: this must print 0.
    std::printf("mapped csr materializations: %llu\n",
                static_cast<unsigned long long>(MappedCsrMaterializations() -
                                                builds_before));
  }

  // Serving-layer counters (src/parallel/epoch.h): every Build/Stream/
  // Insert/Erase publishes once, each publication opens a grace period,
  // and replaced labelings drain through deferred reclamation — the
  // backlog is whatever a pinned reader still holds (0 here: the CLI holds
  // no snapshots across batches).
  {
    const stats::ServingSnapshot s = stats::ReadServing();
    std::printf(
        "serving: %llu snapshot publications, %llu epoch advances, "
        "%llu retired / %llu reclaimed (backlog %llu)\n",
        static_cast<unsigned long long>(s.snapshot_publications -
                                        serving_before.snapshot_publications),
        static_cast<unsigned long long>(s.epoch_advances -
                                        serving_before.epoch_advances),
        static_cast<unsigned long long>(s.snapshots_retired -
                                        serving_before.snapshots_retired),
        static_cast<unsigned long long>(s.snapshots_reclaimed -
                                        serving_before.snapshots_reclaimed),
        static_cast<unsigned long long>(
            (s.snapshots_retired - serving_before.snapshots_retired) -
            (s.snapshots_reclaimed - serving_before.snapshots_reclaimed)));
  }
  if (report_numa) PrintLocality(locality_before);

  // The handoff invariant: streaming the tail onto the built labeling must
  // land on the same partition as a static pass over the whole edge set —
  // minus the erased edges, when --erase ran (every duplicate of an erased
  // edge is the same adjacency, so all copies are dropped).
  const std::vector<NodeId> streamed = CanonicalizeLabels(index.Labels());
  Connectivity full_index(spec);
  std::vector<NodeId> full;
  if (erased_keys.empty()) {
    full = CanonicalizeLabels(full_index.Build(full_handle).Labels());
  } else {
    EdgeList survivors;
    survivors.num_nodes = all.num_nodes;
    for (const Edge& e : all.edges) {
      const std::pair<NodeId, NodeId> key = std::minmax(e.u, e.v);
      if (e.u != e.v && erased_keys.count(key) > 0) continue;
      survivors.edges.push_back(e);
    }
    full = CanonicalizeLabels(
        full_index.Build(GraphHandle(survivors)).Labels());
  }
  const bool identical = (streamed == full);
  std::printf("labeling identical to full static run%s: %s\n",
              erased_keys.empty() ? "" : " over surviving edges",
              identical ? "yes" : "NO");
  std::printf("components: %u\n", CountComponents(streamed));
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the representation, sharding, and streaming flags wherever they
  // appear.
  GraphRepresentation repr = GraphRepresentation::kCsr;
  size_t num_shards = 0;  // 0 = ShardedGraph's default (hardware concurrency)
  size_t stream_batches = 0;
  size_t stream_batch_size = 0;
  size_t num_erase = 0;
  std::string numa_mode;  // empty = flag absent, keep ambient topology
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compressed") == 0 ||
        std::strcmp(argv[i], "--repr=compressed") == 0) {
      repr = GraphRepresentation::kCompressed;
    } else if (std::strcmp(argv[i], "--repr=coo") == 0) {
      repr = GraphRepresentation::kCoo;
    } else if (std::strcmp(argv[i], "--repr=sharded") == 0) {
      repr = GraphRepresentation::kSharded;
    } else if (std::strcmp(argv[i], "--repr=mapped") == 0) {
      repr = GraphRepresentation::kMapped;
    } else if (std::strcmp(argv[i], "--repr=csr") == 0) {
      repr = GraphRepresentation::kCsr;
    } else if (std::strncmp(argv[i], "--repr=", 7) == 0) {
      std::fprintf(stderr, "error: unknown representation %s\n", argv[i] + 7);
      return Usage();
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      char* end = nullptr;
      const long value = std::strtol(argv[i] + 9, &end, 10);
      if (end == argv[i] + 9 || *end != '\0' || value <= 0) {
        std::fprintf(stderr, "error: --shards expects a positive count, got %s\n",
                     argv[i] + 9);
        return Usage();
      }
      num_shards = static_cast<size_t>(value);
    } else if (std::strncmp(argv[i], "--erase=", 8) == 0) {
      char* end = nullptr;
      const long value = std::strtol(argv[i] + 8, &end, 10);
      if (end == argv[i] + 8 || *end != '\0' || value <= 0) {
        std::fprintf(stderr,
                     "error: --erase expects a positive edge count, got %s\n",
                     argv[i] + 8);
        return Usage();
      }
      num_erase = static_cast<size_t>(value);
    } else if (std::strncmp(argv[i], "--numa=", 7) == 0) {
      numa_mode = argv[i] + 7;
      if (numa_mode != "off" && numa_mode != "auto") {
        char* end = nullptr;
        const long value = std::strtol(numa_mode.c_str(), &end, 10);
        if (*numa_mode.c_str() == '\0' || *end != '\0' || value <= 0) {
          std::fprintf(stderr,
                       "error: --numa expects off, auto, or a node count, "
                       "got %s\n",
                       numa_mode.c_str());
          return Usage();
        }
      }
    } else if (std::strncmp(argv[i], "--stream=", 9) == 0) {
      if (std::sscanf(argv[i] + 9, "%zux%zu", &stream_batches,
                      &stream_batch_size) != 2 ||
          stream_batches == 0 || stream_batch_size == 0) {
        std::fprintf(stderr,
                     "error: --stream expects <batches>x<batch-size>, "
                     "got %s\n",
                     argv[i] + 9);
        return Usage();
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (argc < 2) return Usage();

  // Apply the placement mode before anything captures the topology: the
  // thread pool rebinds its workers, and every later ShardedGraph
  // partition picks up the new node count.
  if (!numa_mode.empty()) {
    if (numa_mode == "off") {
      NumaTopology::OverrideNodes(1);
    } else if (numa_mode == "auto") {
      NumaTopology::OverrideNodes(0);  // re-detect (sysfs or env)
    } else {
      NumaTopology::OverrideNodes(
          static_cast<size_t>(std::strtol(numa_mode.c_str(), nullptr, 10)));
    }
    ThreadPool::Get().Rebind();
  }
  const bool report_numa = !numa_mode.empty();

  if (std::strcmp(argv[1], "--list") == 0) {
    for (const Variant& v : AllVariants()) {
      std::printf("%-50s %s%s\n", v.name.c_str(),
                  v.root_based ? "[forest] " : "",
                  v.supports_streaming ? "[streaming]" : "");
    }
    return 0;
  }

  // COO mode keeps the edge list as the graph; the other modes build CSR
  // up front (and optionally byte-code it). In mapped mode a .cgc/.bin
  // input skips both: the container file is mmap'd as-is.
  Graph graph;
  EdgeList edges;
  GraphHandle file_mapped;  // non-empty iff a container file was mapped
  int arg = 2;
  if (std::strcmp(argv[1], "--generate") == 0) {
    if (argc < 4) return Usage();
    const std::string kind = argv[2];
    const NodeId n = static_cast<NodeId>(std::atoll(argv[3]));
    if (kind == "rmat") {
      graph = GenerateRmat(n, 8ull * n, /*seed=*/1);
    } else if (kind == "grid") {
      const NodeId side = static_cast<NodeId>(std::max(1.0, std::sqrt(n)));
      graph = GenerateGrid(side, side);
    } else if (kind == "ba") {
      graph = GenerateBarabasiAlbert(n, 8, /*seed=*/1);
    } else if (kind == "er") {
      graph = GenerateErdosRenyi(n, 8ull * n, /*seed=*/1);
    } else {
      return Usage();
    }
    if (repr == GraphRepresentation::kCoo || stream_batches > 0) {
      edges = ExtractEdges(graph);
      graph = Graph();  // the edges are the graph; drop the CSR
    }
    arg = 4;
  } else {
    std::string read_error;
    if (IsContainerPath(argv[1])) {
      if (repr == GraphRepresentation::kMapped && stream_batches == 0) {
        // The cold path: mmap the container and serve it as-is — no text
        // parse, no in-memory CSR build.
        file_mapped = GraphHandle::Map(argv[1], &read_error);
        if (file_mapped.mapped() == nullptr) {
          std::fprintf(stderr, "error: %s\n", read_error.c_str());
          return 1;
        }
      } else if (!ReadGraphBinary(argv[1], &graph, &read_error)) {
        std::fprintf(stderr, "error: %s\n", read_error.c_str());
        return 1;
      } else if (repr == GraphRepresentation::kCoo || stream_batches > 0) {
        edges = ExtractEdges(graph);
        graph = Graph();  // the edges are the graph; drop the CSR
      }
    } else if (!ReadEdgeListFile(argv[1], &edges, &read_error)) {
      // The loader reports the failing byte offset; surface it verbatim.
      std::fprintf(stderr, "error: %s\n", read_error.c_str());
      return 1;
    } else if (repr != GraphRepresentation::kCoo && stream_batches == 0) {
      // COO is the file's native format: in --repr=coo mode the edges are
      // the graph, and --stream mode splits the raw list itself; no CSR
      // conversion happens here in either case.
      graph = BuildGraph(edges);
      edges = EdgeList();  // don't hold the raw list alongside the CSR
    }
  }

  if (report_numa) PrintTopology();
  std::string variant_name = (argc > arg) ? argv[arg] : DefaultVariant().name;
  if (report_numa && NumaTopology::Get().num_nodes() > 1) {
    variant_name = MaybeReplicatedTwin(variant_name);
  }
  const std::string sampling_name = (argc > arg + 1) ? argv[arg + 1] : "kout";
  // Spec::Algorithm parses the name into a typed descriptor; an unknown
  // name aborts with the closest registered name (try --list).
  const Connectivity::Spec spec = Connectivity::Spec()
                                      .Algorithm(variant_name)
                                      .Sampling(ParseSampling(sampling_name));

  if (num_erase > 0 && stream_batches == 0) {
    std::fprintf(stderr, "error: --erase requires --stream\n");
    return Usage();
  }
  if (stream_batches > 0) {
    return RunStreamMode(repr, num_shards, edges, spec, sampling_name,
                         stream_batches, stream_batch_size, num_erase,
                         report_numa);
  }

  GraphHandle handle;
  switch (repr) {
    case GraphRepresentation::kCsr: handle = GraphHandle(graph); break;
    case GraphRepresentation::kCompressed:
      handle = GraphHandle::Compress(graph);
      break;
    case GraphRepresentation::kCoo: handle = GraphHandle(edges); break;
    case GraphRepresentation::kSharded:
      handle = GraphHandle::Shard(graph, num_shards);
      graph = Graph();  // the shards own a copy; drop the flat CSR
      break;
    case GraphRepresentation::kMapped:
      if (file_mapped.mapped() != nullptr) {
        handle = file_mapped;  // the container file itself, mmap'd
      } else {
        // Text/generated input: round-trip through an unlinked temp
        // container so the run still serves zero-copy from a mapping.
        handle = GraphHandle::MapTempOrDie(graph);
        graph = Graph();  // the mapping owns the bytes; drop the CSR
      }
      break;
  }
  std::printf("graph: n=%u, m=%llu, representation=%s\n", handle.num_nodes(),
              static_cast<unsigned long long>(handle.num_edges()),
              handle.representation_name());
  if (repr == GraphRepresentation::kCompressed) {
    std::printf("byte-coded size: %zu bytes (raw CSR edges: %zu)\n",
                handle.compressed()->byte_size(),
                static_cast<size_t>(graph.num_arcs()) * sizeof(NodeId));
  }
  if (repr == GraphRepresentation::kSharded) {
    std::printf("shards: %zu (%u vertices each)\n",
                handle.sharded()->num_shards(),
                handle.sharded()->shard_width());
    if (report_numa) PrintShardPlacement(*handle.sharded());
  }
  const uint64_t builds_before =
      (repr == GraphRepresentation::kSharded) ? ShardedCsrMaterializations()
      : (repr == GraphRepresentation::kMapped)
          ? MappedCsrMaterializations()
          : CooCsrMaterializations();
  const stats::LocalitySnapshot locality_before = stats::ReadLocality();
  Connectivity index(spec);
  const auto t0 = std::chrono::steady_clock::now();
  index.Build(handle);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const std::vector<NodeId> labels = index.Labels();

  const NodeId num_components = index.NumComponents();
  std::printf("algorithm: %s (+%s)\n", variant_name.c_str(),
              sampling_name.c_str());
  std::printf("time: %.4f s (%.2e edges/s)\n", seconds,
              static_cast<double>(handle.num_edges()) / seconds);
  if (repr == GraphRepresentation::kCoo) {
    // 0 = the run stayed COO-native end to end.
    std::printf("csr materializations: %llu\n",
                static_cast<unsigned long long>(CooCsrMaterializations() -
                                                builds_before));
  } else if (repr == GraphRepresentation::kSharded) {
    // Always 0: every variant × sampling combination is sharded-native.
    std::printf("flat csr materializations: %llu\n",
                static_cast<unsigned long long>(ShardedCsrMaterializations() -
                                                builds_before));
  } else if (repr == GraphRepresentation::kMapped) {
    // Always 0: every variant × sampling combination runs off the mapping.
    std::printf("mapped csr materializations: %llu\n",
                static_cast<unsigned long long>(MappedCsrMaterializations() -
                                                builds_before));
  }
  if (report_numa) PrintLocality(locality_before);
  std::printf("components: %u\n", num_components);
  const auto histogram = ComponentSizeHistogram(labels);
  std::printf("largest component: %u vertices\n",
              histogram.empty() ? 0 : histogram.back().first);
  std::printf("size histogram (size x count), up to 10 entries:\n");
  size_t shown = 0;
  for (auto it = histogram.rbegin(); it != histogram.rend() && shown < 10;
       ++it, ++shown) {
    std::printf("  %10u x %u\n", it->first, it->second);
  }
  return 0;
}
