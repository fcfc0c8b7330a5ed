#include "src/core/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <type_traits>
#include <utility>

namespace connectit {

namespace {

// Detection of a finish method's COO-native entry points (connectit.h).
// A finish family that declares ComponentsOnCoo/ForestOnCoo runs directly
// on an EdgeList; families without them fall back to the handle's cached
// CSR materialization.
template <typename Finish, typename = void>
struct HasCooComponents : std::false_type {};
template <typename Finish>
struct HasCooComponents<
    Finish, std::void_t<decltype(Finish::ComponentsOnCoo(
                std::declval<const EdgeList&>()))>> : std::true_type {};

template <typename Finish, typename = void>
struct HasCooForest : std::false_type {};
template <typename Finish>
struct HasCooForest<Finish, std::void_t<decltype(Finish::ForestOnCoo(
                                std::declval<const EdgeList&>()))>>
    : std::true_type {};

// Per-representation instantiation of the templated framework: each
// registered closure accepts the type-erased GraphHandle and dispatches to
// RunConnectivity/RunSpanningForest<Finish> for the concrete representation
// behind GraphHandle::Visit — the single seam a new representation must
// extend (see ARCHITECTURE.md).
//
// The COO arm is two-tier: unsampled runs of edge-centric finish methods
// execute natively on the edge list (no CSR is ever built); sampling needs
// adjacency (k-out degrees, BFS/LDD traversal), so sampled runs — and
// vertex-centric finish methods — use the CSR cached inside the handle
// (built once, shared by handle copies).
//
// Representations that serve the full adjacency surface take the generic
// branch with no per-representation code here at all: CSR, compressed CSR,
// and sharded CSR (ShardedGraph) all instantiate
// RunConnectivity/RunSpanningForest directly, so every sampling scheme and
// finish family is native on them by construction. This is the walkthrough
// claim ARCHITECTURE.md makes — adding such a representation ends at the
// GraphHandle arm — and the sharded diff proved it: this file's code did
// not change.
template <typename Finish>
std::vector<NodeId> RunOnHandle(const GraphHandle& handle,
                                const SamplingConfig& sampling) {
  return handle.Visit([&](const auto& graph) -> std::vector<NodeId> {
    using Rep = std::decay_t<decltype(graph)>;
    if constexpr (std::is_same_v<Rep, EdgeList>) {
      if constexpr (HasCooComponents<Finish>::value) {
        if (sampling.option == SamplingOption::kNone) {
          return Finish::ComponentsOnCoo(graph);
        }
      }
      return RunConnectivity<Finish>(handle.MaterializedCsr(), sampling);
    } else {
      return RunConnectivity<Finish>(graph, sampling);
    }
  });
}

template <typename Finish>
SpanningForestResult RunForestOnHandle(const GraphHandle& handle,
                                       const SamplingConfig& sampling) {
  return handle.Visit([&](const auto& graph) -> SpanningForestResult {
    using Rep = std::decay_t<decltype(graph)>;
    if constexpr (std::is_same_v<Rep, EdgeList>) {
      if constexpr (HasCooForest<Finish>::value) {
        if (sampling.option == SamplingOption::kNone) {
          return Finish::ForestOnCoo(graph);
        }
      }
      return RunSpanningForest<Finish>(handle.MaterializedCsr(), sampling);
    } else {
      return RunSpanningForest<Finish>(graph, sampling);
    }
  });
}

// Seeded streaming factory: cold seeds build the identity-labeled structure;
// warm seeds run this variant's own static finish through the same
// per-representation dispatch as Variant::run (COO-native / compressed /
// CSR, sampled or not) and hand the labeling to the streaming constructor.
template <typename Finish, typename StreamingT>
std::unique_ptr<StreamingConnectivity> MakeSeededStreaming(
    StreamingSeed seed) {
  if (!seed.warm) return std::make_unique<StreamingT>(seed.n);
  return std::make_unique<StreamingT>(
      RunOnHandle<Finish>(seed.graph, seed.sampling));
}

// ---- union-find registration ----

template <UniteOption kU, FindOption kF, SpliceOption kS,
          PlacementOption kP = PlacementOption::kFlat>
Variant MakeUfVariant() {
  Variant v;
  v.descriptor = VariantDescriptor::UnionFind(kU, kF, kS, kP);
  v.name = v.descriptor.ToString();
  v.group = std::string(ToString(kU));
  if constexpr (kS != SpliceOption::kNone) {
    v.group += ';';
    v.group += ToString(kS);
  }
  if constexpr (kP != PlacementOption::kFlat) {
    v.group += ';';
    v.group += ToString(kP);
  }
  v.find_name = std::string(ToString(kF));
  v.family = AlgorithmFamily::kUnionFind;
  v.root_based = true;
  v.supports_streaming = true;
  using Finish = UnionFindFinish<kU, kF, kS, kP>;
  v.run = RunOnHandle<Finish>;
  // A splice moves a subtree into the other tree without linking a root,
  // so a racing union can record a second edge between the same two trees:
  // the paper proves splicing correct for connectivity only. The forest
  // pass halves instead, which compresses within one tree and keeps every
  // merge a root link.
  constexpr SpliceOption kForestSplice =
      kS == SpliceOption::kSplice ? SpliceOption::kHalveOne : kS;
  v.run_forest =
      RunForestOnHandle<UnionFindFinish<kU, kF, kForestSplice, kP>>;
  v.make_streaming =
      MakeSeededStreaming<Finish, UnionFindStreaming<kU, kF, kS, kP>>;
  return v;
}

template <LtConnect kC, LtUpdate kU, LtShortcut kS, LtAlter kA>
Variant MakeLtVariant() {
  Variant v;
  v.descriptor = VariantDescriptor::LiuTarjan(kC, kU, kS, kA);
  v.name = v.descriptor.ToString();
  v.group = LtVariantCode(kC, kU, kS, kA);
  v.family = AlgorithmFamily::kLiuTarjan;
  v.root_based = (kU == LtUpdate::kRootUp);
  using Finish = LiuTarjanFinish<kC, kU, kS, kA>;
  v.run = RunOnHandle<Finish>;
  if constexpr (kU == LtUpdate::kRootUp) {
    v.run_forest = RunForestOnHandle<Finish>;
    v.supports_streaming = true;
    v.make_streaming =
        MakeSeededStreaming<Finish, LiuTarjanStreaming<kC, kS, kA>>;
  }
  return v;
}

std::vector<Variant> BuildRegistry() {
  std::vector<Variant> variants;

  // Union-find: Async / Hooks / Early x 4 find options. Every min-based
  // combination is registered in both placements (flat and NumaReplicated;
  // IsValidPlacement excludes JTB from the replicated axis).
#define CONNECTIT_UF(U, F)                                                  \
  variants.push_back(                                                       \
      MakeUfVariant<UniteOption::U, FindOption::F, SpliceOption::kNone>()); \
  variants.push_back(                                                       \
      MakeUfVariant<UniteOption::U, FindOption::F, SpliceOption::kNone,     \
                    PlacementOption::kNumaReplicated>());
  CONNECTIT_UF(kAsync, kNaive)
  CONNECTIT_UF(kAsync, kSplit)
  CONNECTIT_UF(kAsync, kHalve)
  CONNECTIT_UF(kAsync, kCompress)
  CONNECTIT_UF(kHooks, kNaive)
  CONNECTIT_UF(kHooks, kSplit)
  CONNECTIT_UF(kHooks, kHalve)
  CONNECTIT_UF(kHooks, kCompress)
  CONNECTIT_UF(kEarly, kNaive)
  CONNECTIT_UF(kEarly, kSplit)
  CONNECTIT_UF(kEarly, kHalve)
  CONNECTIT_UF(kEarly, kCompress)
#undef CONNECTIT_UF
  // JTB: FindNaive ("FindSimple") and two-try splitting; flat only.
  variants.push_back(MakeUfVariant<UniteOption::kJtb, FindOption::kNaive,
                                   SpliceOption::kNone>());
  variants.push_back(MakeUfVariant<UniteOption::kJtb,
                                   FindOption::kTwoTrySplit,
                                   SpliceOption::kNone>());

  // Rem's algorithms: find x splice, excluding FindCompress+SpliceAtomic.
#define CONNECTIT_REM(U, F, S)                                          \
  variants.push_back(                                                   \
      MakeUfVariant<UniteOption::U, FindOption::F, SpliceOption::S>()); \
  variants.push_back(                                                   \
      MakeUfVariant<UniteOption::U, FindOption::F, SpliceOption::S,     \
                    PlacementOption::kNumaReplicated>());
#define CONNECTIT_REM_ALL(U)            \
  CONNECTIT_REM(U, kNaive, kSplitOne)   \
  CONNECTIT_REM(U, kNaive, kHalveOne)   \
  CONNECTIT_REM(U, kNaive, kSplice)     \
  CONNECTIT_REM(U, kSplit, kSplitOne)   \
  CONNECTIT_REM(U, kSplit, kHalveOne)   \
  CONNECTIT_REM(U, kSplit, kSplice)     \
  CONNECTIT_REM(U, kHalve, kSplitOne)   \
  CONNECTIT_REM(U, kHalve, kHalveOne)   \
  CONNECTIT_REM(U, kHalve, kSplice)     \
  CONNECTIT_REM(U, kCompress, kSplitOne)\
  CONNECTIT_REM(U, kCompress, kHalveOne)
  CONNECTIT_REM_ALL(kRemCas)
  CONNECTIT_REM_ALL(kRemLock)
#undef CONNECTIT_REM_ALL
#undef CONNECTIT_REM

  // Shiloach-Vishkin.
  {
    Variant v;
    v.descriptor = VariantDescriptor::ShiloachVishkin();
    v.name = v.descriptor.ToString();
    v.group = "Shiloach-Vishkin";
    v.family = AlgorithmFamily::kShiloachVishkin;
    v.root_based = true;
    v.supports_streaming = true;
    v.run = RunOnHandle<ShiloachVishkinFinish>;
    v.run_forest = RunForestOnHandle<ShiloachVishkinFinish>;
    v.make_streaming =
        MakeSeededStreaming<ShiloachVishkinFinish, ShiloachVishkinStreaming>;
    variants.push_back(std::move(v));
  }

  // The 16 Liu-Tarjan variants of Appendix D.
#define CONNECTIT_LT(C, U, S, A)                                   \
  variants.push_back(MakeLtVariant<LtConnect::C, LtUpdate::U,      \
                                   LtShortcut::S, LtAlter::A>());
  CONNECTIT_LT(kConnect, kUpdate, kShortcut, kAlter)             // CUSA
  CONNECTIT_LT(kConnect, kRootUp, kShortcut, kAlter)             // CRSA
  CONNECTIT_LT(kParentConnect, kUpdate, kShortcut, kAlter)       // PUSA
  CONNECTIT_LT(kParentConnect, kRootUp, kShortcut, kAlter)       // PRSA
  CONNECTIT_LT(kParentConnect, kUpdate, kShortcut, kNoAlter)     // PUS
  CONNECTIT_LT(kParentConnect, kRootUp, kShortcut, kNoAlter)     // PRS
  CONNECTIT_LT(kExtendedConnect, kUpdate, kShortcut, kAlter)     // EUSA
  CONNECTIT_LT(kExtendedConnect, kUpdate, kShortcut, kNoAlter)   // EUS
  CONNECTIT_LT(kConnect, kUpdate, kFullShortcut, kAlter)         // CUFA
  CONNECTIT_LT(kConnect, kRootUp, kFullShortcut, kAlter)         // CRFA
  CONNECTIT_LT(kParentConnect, kUpdate, kFullShortcut, kAlter)   // PUFA
  CONNECTIT_LT(kParentConnect, kRootUp, kFullShortcut, kAlter)   // PRFA
  CONNECTIT_LT(kParentConnect, kUpdate, kFullShortcut, kNoAlter) // PUF
  CONNECTIT_LT(kParentConnect, kRootUp, kFullShortcut, kNoAlter) // PRF
  CONNECTIT_LT(kExtendedConnect, kUpdate, kFullShortcut, kAlter) // EUFA
  CONNECTIT_LT(kExtendedConnect, kUpdate, kFullShortcut, kNoAlter) // EUF
#undef CONNECTIT_LT

  // Stergiou.
  {
    Variant v;
    v.descriptor = VariantDescriptor::Stergiou();
    v.name = v.descriptor.ToString();
    v.group = "Stergiou";
    v.family = AlgorithmFamily::kStergiou;
    v.run = RunOnHandle<StergiouFinish>;
    variants.push_back(std::move(v));
  }

  // Label-Propagation.
  {
    Variant v;
    v.descriptor = VariantDescriptor::LabelPropagation();
    v.name = v.descriptor.ToString();
    v.group = "Label-Propagation";
    v.family = AlgorithmFamily::kLabelPropagation;
    v.run = RunOnHandle<LabelPropFinish>;
    variants.push_back(std::move(v));
  }

  return variants;
}

}  // namespace

const std::vector<Variant>& AllVariants() {
  static const std::vector<Variant>* variants =
      new std::vector<Variant>(BuildRegistry());
  return *variants;
}

const Variant* FindVariant(std::string_view name) {
  for (const Variant& v : AllVariants()) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

const Variant* FindVariant(const VariantDescriptor& descriptor) {
  for (const Variant& v : AllVariants()) {
    if (v.descriptor == descriptor) return &v;
  }
  return nullptr;
}

namespace {

// Plain O(a*b) Levenshtein distance, used only on the fatal-lookup path to
// suggest the closest registered name.
size_t EditDistance(std::string_view a, std::string_view b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      const size_t next = std::min(
          {row[j] + 1, row[j - 1] + 1, diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

}  // namespace

const Variant& GetVariantOrDie(std::string_view name) {
  if (const Variant* v = FindVariant(name)) return *v;
  const Variant* nearest = nullptr;
  size_t best = static_cast<size_t>(-1);
  for (const Variant& v : AllVariants()) {
    const size_t d = EditDistance(name, v.name);
    if (d < best) {
      best = d;
      nearest = &v;
    }
  }
  std::fprintf(stderr,
               "fatal: unknown variant \"%.*s\"; did you mean \"%s\"? "
               "(%zu variants registered; connectit_cli --list prints them)\n",
               static_cast<int>(name.size()), name.data(),
               nearest != nullptr ? nearest->name.c_str() : "?",
               AllVariants().size());
  std::abort();
}

const Variant& DefaultVariant() {
  static const Variant* variant = FindVariant(VariantDescriptor::UnionFind(
      UniteOption::kRemCas, FindOption::kNaive, SpliceOption::kSplitOne));
  return *variant;
}

std::vector<const Variant*> VariantsOfFamily(AlgorithmFamily family) {
  std::vector<const Variant*> out;
  for (const Variant& v : AllVariants()) {
    if (v.family == family) out.push_back(&v);
  }
  return out;
}

std::vector<const Variant*> RootBasedVariants() {
  std::vector<const Variant*> out;
  for (const Variant& v : AllVariants()) {
    if (v.root_based) out.push_back(&v);
  }
  return out;
}

std::vector<const Variant*> StreamingVariants() {
  std::vector<const Variant*> out;
  for (const Variant& v : AllVariants()) {
    if (v.supports_streaming) out.push_back(&v);
  }
  return out;
}

std::vector<AlgorithmRow> PaperAlgorithmRows() {
  const std::vector<std::string> rows = {
      "Union-Early",   "Union-Hooks",      "Union-Async",
      "Union-Rem-CAS", "Union-Rem-Lock",   "Union-JTB",
      "Liu-Tarjan",    "Shiloach-Vishkin", "Label-Propagation",
      "Stergiou",
  };
  std::vector<AlgorithmRow> out;
  for (const std::string& row : rows) {
    AlgorithmRow entry;
    entry.name = row;
    for (const Variant& v : AllVariants()) {
      // Paper rows cover the flat placement only: the replicated twins are
      // a memory-placement overlay, not a paper algorithm.
      if (v.family == AlgorithmFamily::kUnionFind &&
          v.descriptor.placement != PlacementOption::kFlat) {
        continue;
      }
      const bool match =
          (row == "Liu-Tarjan")
              ? v.family == AlgorithmFamily::kLiuTarjan
              : v.name.rfind(row, 0) == 0;  // prefix match on unite name
      if (match) entry.variants.push_back(&v);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace connectit
