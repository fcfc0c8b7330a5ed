// connectit::Connectivity — the serving façade over the variant space.
//
// This is the front door for downstream consumers (examples, the CLI,
// services embedding the library): one object that owns the full
// connectivity lifecycle, so callers never hand-assemble
// GraphHandle/SamplingConfig/StreamingSeed plumbing or look variants up by
// string. The registry (registry.h) stays the internal dispatch seam the
// façade sits on — benches and tests still sweep it directly.
//
//   Connectivity index(Connectivity::Spec()
//                          .Algorithm(VariantDescriptor::UnionFind(
//                              UniteOption::kRemCas, FindOption::kNaive,
//                              SpliceOption::kSplitOne))
//                          .Sampling(SamplingConfig::KOut()));
//   index.Build(graph);                  // bulk analytical pass (Alg. 1)
//   index.SameComponent(u, v);           // serve reads...
//   index.Stream();                      // ...hand off to incremental mode
//   index.Insert(todays_edges, queries); // batches + inline queries (§3.5)
//   Snapshot snap = index.Acquire();     // pin one labeling across queries
//   index.NumComponents();               // reads stay live throughout
//
// Lifecycle: Build runs the configured variant's static pass on the graph
// (converted to the Spec's representation if one was requested); Stream
// hands the published labeling to batch mode; Insert applies §3.5 batches
// to that labeling itself (the variant's streaming structures, streaming.h,
// stay library algorithms), and Erase deletes edges.
//
// Serving model: every mutation (Build, Stream, Insert, Erase) finishes by
// *publishing* an immutable, fully path-compressed Snapshot of the
// labeling through one atomic pointer swap. Reads (Component,
// SameComponent, NumComponents, ComponentSizes, Labels) dereference the
// published pointer inside an epoch guard (src/parallel/epoch.h) and
// answer by a page-table lookup — wait-free, no lock, no parent-chasing,
// scaling to all cores while an ingest thread applies batches. A reader
// can never observe a half-applied batch: the pointer swaps only between
// complete labelings. Replaced snapshots are retired into the epoch domain
// and freed once no reader can hold them (and, for Acquire'd snapshots,
// once every handle is released).
//
// A snapshot is a table of fixed-size label and size pages. Insert
// publishes in time set by the batch, not by n: it groups the
// batch's edges by their pre-batch labels, relabels only the smaller side
// of each merge (walking that component's member list) into copy-on-write
// pages, and shares every other page with the previous snapshot.
// Small-to-large bounds the relabelling over any insert sequence at
// O(n log n). Build, Stream(n) and an Erase that splits a component
// publish the whole partition in one Θ(n) pass; Stream() shares the pages
// it finds. The published snapshot is the index's only copy of the served
// labeling.
//
// Spec is a builder: algorithm (typed descriptor or registry-name string),
// sampling scheme, target representation, shard count.
// Spec::Auto(graph, streaming) inspects graph traits (density, input
// representation, whether streaming is requested) and picks a variant +
// representation per the paper's guidance.

#ifndef CONNECTIT_CORE_CONNECTIVITY_INDEX_H_
#define CONNECTIT_CORE_CONNECTIVITY_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "src/core/registry.h"
#include "src/core/variant_descriptor.h"
#include "src/graph/graph_handle.h"
#include "src/stats/counters.h"

namespace connectit {

class DynamicForest;

namespace internal {

// Entries per snapshot page: 4 KiB of labels.
inline constexpr NodeId kPageBits = 10;
inline constexpr NodeId kPageSize = NodeId{1} << kPageBits;
inline constexpr NodeId kPageMask = kPageSize - 1;

// One page of a snapshot array. Consecutive snapshots share the pages a
// batch did not change; a published page is never written again.
struct Page {
  uint64_t birth;  // version of the first snapshot that holds this page
  NodeId at[kPageSize];
};

// Frees the pages of one index's snapshots (connectivity_index.cc).
class PageStore;

[[noreturn]] void ThrowNodeOutOfRange(NodeId v, NodeId num_nodes);

// One published labeling: immutable after publication (refs aside), so any
// number of readers index it without synchronization.
struct SnapshotData {
  ~SnapshotData();  // lets `store` free the pages no snapshot holds now

  NodeId num_nodes = 0;
  NodeId num_components = 0;
  // Label of each vertex, fully path-compressed: Label(Label(v)) ==
  // Label(v) for every v.
  std::vector<Page*> labels;
  // Component size by representative label. Entries of vertices that
  // represent no component are stale and never read: an Insert skips the
  // write for a representative it merges away.
  std::vector<Page*> sizes;
  std::shared_ptr<PageStore> store;  // owns the pages
  uint64_t version = 0;  // publication sequence number of this index
  mutable std::atomic<uint64_t> refs{0};  // outstanding Snapshot handles

  NodeId Label(NodeId v) const {
    if (v >= num_nodes) ThrowNodeOutOfRange(v, num_nodes);
    return labels[v >> kPageBits]->at[v & kPageMask];
  }
  // The size entry of `rep`; meaningful only if Label(rep) == rep.
  NodeId Size(NodeId rep) const {
    return sizes[rep >> kPageBits]->at[rep & kPageMask];
  }
};

}  // namespace internal

// An immutable, refcounted view of one published labeling. Answers are
// frozen at Acquire() time: any number of queries against one Snapshot
// are mutually consistent no matter how many batches land concurrently.
// Cheap to copy (one atomic increment); holding one defers reclamation of
// exactly its own block, never the epoch machinery. A default-constructed
// Snapshot is empty (valid() == false, zero nodes). Out-of-range vertices
// throw std::out_of_range.
class Snapshot {
 public:
  Snapshot() = default;
  ~Snapshot();
  Snapshot(const Snapshot& other);
  Snapshot& operator=(const Snapshot& other);
  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(Snapshot&& other) noexcept;

  bool valid() const { return data_ != nullptr; }

  NodeId num_nodes() const {
    return data_ == nullptr ? 0 : data_->num_nodes;
  }
  NodeId Component(NodeId v) const {
    if (data_ == nullptr) internal::ThrowNodeOutOfRange(v, 0);
    return data_->Label(v);
  }
  bool SameComponent(NodeId u, NodeId v) const {
    if (data_ == nullptr) internal::ThrowNodeOutOfRange(u, 0);
    return data_->Label(u) == data_->Label(v);
  }
  NodeId NumComponents() const {
    return data_ == nullptr ? 0 : data_->num_components;
  }
  // Size of the component whose representative is `rep` (0 if rep
  // represents none).
  NodeId ComponentSize(NodeId rep) const {
    if (data_ == nullptr) internal::ThrowNodeOutOfRange(rep, 0);
    return data_->Label(rep) == rep ? data_->Size(rep) : 0;
  }
  // Materialized copies (Θ(n)): every ComponentSize indexed by vertex, and
  // every Component.
  std::vector<NodeId> ComponentSizes() const;
  std::vector<NodeId> Labels() const;

  // Publication sequence number: strictly increasing per Connectivity
  // publication, 0 for an empty handle.
  uint64_t version() const { return data_ == nullptr ? 0 : data_->version; }

 private:
  friend class Connectivity;
  // Takes ownership of one reference the caller already holds on `data`.
  explicit Snapshot(const internal::SnapshotData* data) : data_(data) {}
  void Release();

  const internal::SnapshotData* data_ = nullptr;
};

class Connectivity {
 public:
  class Spec {
   public:
    // Default: the paper's recommended all-around variant (DefaultVariant),
    // no sampling, keep the input graph's representation.
    Spec() : algorithm_(DefaultVariant().descriptor) {}

    // Picks algorithm, sampling, and representation from the graph's
    // traits, following the paper's guidance:
    //  - the algorithm is always DefaultVariant (Union-Rem-CAS;FindNaive;
    //    SplitAtomicOne — fastest all-around, root-based, streamable);
    //  - COO inputs stay unsampled so the whole lifecycle runs natively on
    //    the edge list (sampling would force a CSR materialization);
    //  - otherwise dense graphs (avg degree >= 4) get k-out sampling —
    //    sampling only pays when most edges can be skipped after the giant
    //    component is rooted (§4.2);
    //  - large dense CSR inputs are resharded for shard-major locality
    //    unless streaming is requested (a one-shot seed pass would not
    //    amortize the partition cost).
    static Spec Auto(const GraphHandle& graph, bool streaming = false);

    // The finish variant, as a typed descriptor or a registry-name string.
    // The string form is the parse layer for CLIs/configs and dies with a
    // nearest-match suggestion on an unknown name (GetVariantOrDie).
    Spec& Algorithm(const VariantDescriptor& descriptor);
    Spec& Algorithm(std::string_view name);

    Spec& Sampling(const SamplingConfig& sampling) {
      sampling_ = sampling;
      return *this;
    }

    // Convert Build's input to this representation first. A conversion
    // produces an owning handle; an input that already matches is used
    // as-is (so a matching *view* follows Build's view-lifetime rule).
    // Unset: run on whatever representation the caller hands in.
    Spec& Representation(GraphRepresentation representation) {
      representation_ = representation;
      return *this;
    }

    // Shard count for Representation(kSharded); 0 = worker-count default.
    Spec& Shards(size_t num_shards) {
      shards_ = num_shards;
      return *this;
    }

    const VariantDescriptor& algorithm() const { return algorithm_; }
    const SamplingConfig& sampling() const { return sampling_; }
    std::optional<GraphRepresentation> representation() const {
      return representation_;
    }
    size_t shards() const { return shards_; }

   private:
    VariantDescriptor algorithm_;
    SamplingConfig sampling_;
    std::optional<GraphRepresentation> representation_;
    size_t shards_ = 0;
  };

  // Resolves the Spec's descriptor against the registry; dies if the
  // descriptor denotes an unregistered combination (impossible for
  // descriptors produced by Parse or Spec::Auto).
  Connectivity() : Connectivity(Spec()) {}
  explicit Connectivity(Spec spec);

  // Retires the published snapshot into the epoch domain. Snapshots
  // acquired from this index stay valid after destruction — their blocks
  // are reclaimed when the last handle releases.
  ~Connectivity();

  // Movable for setup-time ergonomics (pick-the-winner loops); the
  // moved-from index reverts to the un-built state of its spec. Not
  // copyable — an index owns its labeling, its forest and its lock.
  Connectivity(Connectivity&& other) noexcept;
  Connectivity& operator=(Connectivity&& other) noexcept;
  Connectivity(const Connectivity&) = delete;
  Connectivity& operator=(const Connectivity&) = delete;

  const Spec& spec() const { return spec_; }
  // The resolved registry variant — the escape hatch for capabilities the
  // façade does not wrap (heatmap axis labels, family predicates, ...).
  const Variant& variant() const { return *variant_; }

  // Runs the variant's static pass (paper Algorithm 1) over `graph` under
  // the Spec's sampling scheme, replacing any previous state. If the Spec
  // requests a different representation the graph is converted (owning);
  // otherwise the handle is used as-is, and a *view* handle's target must
  // outlive the next Build/SpanningForest call. Returns *this for
  // chaining.
  Connectivity& Build(const GraphHandle& graph);

  // Hands off to batch-incremental mode (paper §3.5) from the published
  // labeling (the built one, plus every Insert and Erase since), whose
  // pages go out again under a new version. Requires a prior Build and a
  // streaming-capable variant (dies otherwise — query
  // variant().supports_streaming first if unsure).
  Connectivity& Stream();

  // Cold-starts batch mode over `num_nodes` isolated vertices, no static
  // pass. The from-scratch ingest shape.
  Connectivity& Stream(NodeId num_nodes);

  // True once Stream() has run; Insert is only legal then.
  bool streaming() const;

  // Applies one batch of edge insertions and answers the batched
  // connectivity queries (one byte per query: 1 = connected after this
  // batch). Batches serialize against each other; the post-batch labeling
  // is published before Insert returns, so every subsequent read sees it,
  // and the queries read that publication (a valid linearization for all
  // three of the paper's batch types). The publication costs time in the
  // batch, not in n (see the header comment). An update or query endpoint
  // >= num_nodes() throws std::out_of_range before anything changes: the
  // batch is not applied and nothing is published.
  std::vector<uint8_t> Insert(const std::vector<Edge>& updates,
                              const std::vector<Edge>& queries = {});

  // Applies one batch of edge *deletions* and answers the batched
  // connectivity queries against the post-batch labeling. Requires
  // Stream() first, like Insert.
  //
  // Deletions ride on a dynamic spanning forest (src/core/dynamic_forest.h)
  // armed lazily on the first Erase: the variant's own run_forest pass
  // seeds the forest from the built graph, and every edge inserted since
  // Stream() is replayed from a journal the façade keeps. A deleted
  // non-forest edge is free; a deleted forest edge triggers a
  // replacement-edge search over the smaller of the two trees it leaves,
  // so an Erase costs the sides it cuts, not n. Only when a component
  // actually splits is the forest's labeling published in full — a
  // deletion with a surviving replacement changes no labels and no query
  // answer, and republishes the same pages under a new version. Erase
  // publishes exactly once, like Insert, answers its queries from that
  // publication, and ticks the erase counters in stats::ReadServing(). An
  // update naming a vertex >= num_nodes() is a miss, like any absent edge;
  // a query endpoint >= num_nodes() throws std::out_of_range before
  // anything changes (the forest does not arm, nothing is erased or
  // published).
  //
  // The first Erase arms the forest completely before it returns, an
  // empty one included: run_forest, then a bulk load of the built graph
  // (see DynamicForest::AdoptGraph), then the journal replay.
  std::vector<uint8_t> Erase(const std::vector<Edge>& updates,
                             const std::vector<Edge>& queries = {});

  // Spanning forest of the built graph via the variant's run_forest (paper
  // Algorithm 2). Requires Build and a root-based variant (dies
  // otherwise).
  SpanningForestResult SpanningForest() const;

  // ---- thread-safe reads against the current labeling ----
  // Wait-free: an epoch guard and a page-table lookup, no lock.

  // The component representative of v (vertices in the same component
  // report the same representative).
  NodeId Component(NodeId v) const;
  bool SameComponent(NodeId u, NodeId v) const;
  NodeId NumComponents() const;
  // Size of each component, indexed by representative (0 elsewhere).
  std::vector<NodeId> ComponentSizes() const;
  // Snapshot of the full labeling.
  std::vector<NodeId> Labels() const;

  // Pins the current labeling for multi-query consistency: every answer
  // from the returned Snapshot reflects the same batch prefix, no matter
  // how many Inserts land while it is held. Wait-free.
  Snapshot Acquire() const;

  NodeId num_nodes() const;
  // Representation the index was built on (kCsr before any Build).
  GraphRepresentation representation() const;

 private:
  void CheckBuilt(const char* op) const;
  void CheckStreamable() const;  // dies without a streaming form

  // First-Erase arming: seeds forest_ from the built graph via the
  // variant's run_forest, then replays insert_journal_. Callers hold mu_
  // exclusively.
  void ArmForestLocked();

  // Full publication: one Θ(n) pass copies a fully compressed labeling
  // into fresh pages and recounts sizes and components. While streaming it
  // also relinks the member lists. Callers hold mu_ exclusively.
  void PublishFullLocked(const std::vector<NodeId>& labels);

  // Callers hold mu_ exclusively: republish the current pages under a new
  // version; rebuild members_ from the published labeling; answer queries
  // from it (one byte each, 1 = same label).
  void RepublishLocked();
  void LinkMembersLocked();
  std::vector<uint8_t> AnswerLocked(const std::vector<Edge>& queries) const;

  // Insert's publication: merges the components the batch connects,
  // relabelling the smaller side of each merge into copy-on-write pages.
  // Callers hold mu_ exclusively.
  void PublishInsertLocked(const std::vector<Edge>& updates);

  // Publishes `data`, built under version next_version(), and retires the
  // previous snapshot. Callers hold mu_ exclusively.
  void SwapInLocked(internal::SnapshotData* data);
  uint64_t next_version() const { return publish_seq_ + 1; }

  // Unpublishes and retires the current snapshot and, with it, every
  // current page (destructor, move-out).
  void RetireSnapshot();

  Spec spec_;
  const Variant* variant_;

  // Serializes mutators. Label reads never take it; streaming(),
  // representation() and SpanningForest() read under it shared.
  mutable std::shared_mutex mu_;
  GraphHandle graph_;  // the built graph, Spec representation
  bool built_ = false;
  bool streaming_ = false;  // Stream() has run: Insert and Erase are legal

  // Batch-deletion state. forest_ arms on the first Erase (null until
  // then — pure insert workloads never pay for it); insert_journal_
  // records every edge Insert applied since the last Build/Stream so the
  // arming pass sees the full current edge set, and drains into forest_
  // when it arms. Re-Stream() keeps both (the edge set is unchanged);
  // Build and cold Stream(n) reset them.
  std::unique_ptr<DynamicForest> forest_;
  std::vector<Edge> insert_journal_;

  // The published labeling, the index's only copy of the served labels.
  // Never null: an empty snapshot is published at construction and after
  // a move-out. Swapped only under mu_; loaded lock-free by readers.
  std::atomic<internal::SnapshotData*> snapshot_{nullptr};
  uint64_t publish_seq_ = 0;
  // Frees the pages of snapshot_ and of every snapshot it replaced.
  std::shared_ptr<internal::PageStore> pages_;
  // While streaming: one circular member list per component of the
  // published labeling (members_[v] is the next vertex of v's component),
  // so Insert walks exactly the components it relabels. Empty when not
  // streaming.
  std::vector<NodeId> members_;
};

}  // namespace connectit

#endif  // CONNECTIT_CORE_CONNECTIVITY_INDEX_H_
