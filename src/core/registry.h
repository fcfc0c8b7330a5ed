// Runtime registry of every algorithm variant instantiated by this build.
//
// The compile-time framework (connectit.h) produces hundreds of distinct
// algorithm combinations; the registry exposes each as a named, uniformly
// callable entry so that tests can sweep the full space and benches can
// reproduce the paper's per-variant tables and heatmaps.
//
// Variant identity is typed: every Variant carries a VariantDescriptor
// (variant_descriptor.h — enums per axis) and its name is the descriptor's
// ToString. The string naming scheme is the human/CLI parse layer:
//   "Union-Rem-CAS;FindNaive;SplitAtomicOne"   (union-find: unite;find[;splice])
//   "Union-JTB;FindTwoTrySplit"
//   "Shiloach-Vishkin"
//   "Liu-Tarjan;PRF"                           (Appendix D variant codes)
//   "Stergiou"  "Label-Propagation"
// Sampling is orthogonal: pass any SamplingConfig to run/run_forest.
//
// This registry is the *internal* dispatch seam. Downstream consumers
// (examples, services) go through the connectit::Connectivity façade in
// connectivity_index.h; benches and tests reach in directly to sweep the
// variant space. See ARCHITECTURE.md "Serving layer".
//
// The graph representation is orthogonal too: run/run_forest take a
// type-erased GraphHandle (graph_handle.h), so every variant executes
// uniformly on plain CSR, byte-compressed CSR, COO, or sharded-CSR input;
// the templated finish adapters are instantiated per representation behind
// GraphHandle::Visit. Edge-centric families (union-find, Liu-Tarjan,
// Stergiou) run *natively* on COO handles when unsampled — no CSR is built;
// adjacency-dependent work (any sampling scheme, Shiloach-Vishkin, label
// propagation) transparently uses the CSR cached inside the handle.
// Sharded handles (ShardedGraph, a vertex-partitioned CSR) serve the full
// adjacency surface, so the entire variant × sampling space runs on the
// shards natively — the flat-CSR fallback is never taken
// (ShardedCsrMaterializations() stays flat across registry runs). A
// `const Graph&` still works at every call site via GraphHandle's implicit
// view conversion. ARCHITECTURE.md documents the dispatch contract and the
// per-family native-representation matrix.

#ifndef CONNECTIT_CORE_REGISTRY_H_
#define CONNECTIT_CORE_REGISTRY_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/connectit.h"
#include "src/core/options.h"
#include "src/core/streaming.h"
#include "src/core/variant_descriptor.h"
#include "src/graph/graph_handle.h"
#include "src/unionfind/options.h"

namespace connectit {

// How a streaming structure starts life (paper §3.5): cold over n isolated
// vertices, or warm from the labeling a static pass produces. The warm form
// is the static-to-streaming handoff seam — make_streaming runs the
// variant's *own* static finish on the handle (native per representation:
// COO edge-centric runs build no CSR, compressed runs decode in place,
// sharded runs traverse the shards directly) and the streaming structure
// adopts the resulting labeling, so a bulk load and its incremental
// continuation use one algorithm and one parent array discipline. The
// Connectivity façade (connectivity_index.h) does not build these
// structures: its batches update the published labeling directly.
struct StreamingSeed {
  // Cold start: n isolated vertices. Implicit so that the pre-handoff call
  // shape make_streaming(n) stays the identity-seeded special case.
  StreamingSeed(NodeId n) : n(n) {}

  static StreamingSeed Cold(NodeId n) { return StreamingSeed(n); }

  // Warm start: run this variant's static finish on `graph` under
  // `sampling`, then adopt the labeling. The handle may wrap any
  // representation; dispatch reuses the same RunOnHandle seam as
  // Variant::run.
  static StreamingSeed FromStatic(GraphHandle graph,
                                  SamplingConfig sampling =
                                      SamplingConfig::None()) {
    StreamingSeed seed(graph.num_nodes());
    seed.graph = std::move(graph);
    seed.sampling = sampling;
    seed.warm = true;
    return seed;
  }

  NodeId n = 0;
  GraphHandle graph;  // empty unless warm
  SamplingConfig sampling;
  bool warm = false;
};

struct Variant {
  // Typed identity: the enum-per-axis form of `name`. `name` is always
  // descriptor.ToString(), so the string is a derived view, never the
  // source of truth. Look variants up by descriptor for exact matching;
  // parse user input through VariantDescriptor::Parse.
  VariantDescriptor descriptor;
  std::string name;
  // Axis labels for the paper's heatmaps: e.g. group "Union-Rem-CAS;Splice",
  // find "FindNaive".
  std::string group;
  std::string find_name;
  AlgorithmFamily family = AlgorithmFamily::kUnionFind;
  bool root_based = false;
  bool supports_streaming = false;

  // Paper Algorithm 1 (Connectivity): sampling phase (§3.2) + this
  // variant's finish phase. Native on CSR, compressed CSR, and sharded CSR
  // for every family (sharded traversals schedule shard-major — see
  // ShardedGraph::MapArcs); native on COO for the edge-centric families
  // (union-find §3.3.1, Liu-Tarjan §3.3.2/App. D, Stergiou §B.2.5) when
  // sampling is kNone, via the handle's cached CSR otherwise.
  std::function<std::vector<NodeId>(const GraphHandle&, const SamplingConfig&)>
      run;
  // Paper Algorithm 2 (SpanningForest); null unless root_based (App. B.2).
  // Same representation rules as `run` (COO-native: union-find and RootUp
  // Liu-Tarjan).
  std::function<SpanningForestResult(const GraphHandle&, const SamplingConfig&)>
      run_forest;
  // Paper §3.5 batch-incremental form; null unless supports_streaming.
  // Consumes COO batches by definition (representation-independent). The
  // seed selects a cold start (vertex count) or a warm start adopting this
  // variant's static-pass labeling on any GraphHandle (see StreamingSeed).
  std::function<std::unique_ptr<StreamingConnectivity>(StreamingSeed)>
      make_streaming;
};

// All registered variants (built once, in deterministic order).
const std::vector<Variant>& AllVariants();

// Looks up a variant by exact name; nullptr if absent.
const Variant* FindVariant(std::string_view name);

// Looks up a variant by its typed descriptor (exact axis comparison, no
// string matching); nullptr if the combination is not registered.
const Variant* FindVariant(const VariantDescriptor& descriptor);

// As FindVariant(name), but a lookup failure is fatal: prints the bad name
// plus the closest registered name (by edit distance) to stderr and
// aborts. Use at the edges — CLI flags, bench tables, example defaults —
// where a misspelled variant name should stop the run, not null-deref or
// silently skip.
const Variant& GetVariantOrDie(std::string_view name);

// The paper's recommended all-around variant (Union-Rem-CAS with FindNaive
// and one atomic path split per step — §4's pick for both static and
// streaming workloads). The default the façade, CLI, and examples use when
// no variant is named.
const Variant& DefaultVariant();

// Subsets used by benches and tests.
std::vector<const Variant*> VariantsOfFamily(AlgorithmFamily family);
std::vector<const Variant*> RootBasedVariants();
std::vector<const Variant*> StreamingVariants();

// One representative per paper "algorithm row" (Table 3 / Table 4 rows):
// Union-Async, Union-Hooks, Union-Early, Union-Rem-CAS, Union-Rem-Lock,
// Union-JTB, Shiloach-Vishkin, Liu-Tarjan, Stergiou, Label-Propagation.
// Each entry lists the variants belonging to the row (the benches report
// the fastest within the row, as the paper does).
struct AlgorithmRow {
  std::string name;
  std::vector<const Variant*> variants;
};
std::vector<AlgorithmRow> PaperAlgorithmRows();

}  // namespace connectit

#endif  // CONNECTIT_CORE_REGISTRY_H_
