#include "src/core/connectivity_index.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/core/components.h"
#include "src/core/dynamic_forest.h"
#include "src/core/sparse_union.h"
#include "src/graph/builder.h"
#include "src/parallel/atomics.h"
#include "src/parallel/epoch.h"
#include "src/parallel/thread_pool.h"

namespace connectit {

namespace internal {

void ThrowNodeOutOfRange(NodeId v, NodeId num_nodes) {
  throw std::out_of_range("vertex " + std::to_string(v) +
                          " out of range for " + std::to_string(num_nodes) +
                          " nodes");
}

// A page is held by every snapshot from its birth version up to the
// version that replaced it. Once replaced (retired) it is freed as soon as
// no live snapshot has a version in that range, so page tables copy as
// plain pointers, with no per-page reference count. Shared by the index
// and each of its snapshots: whichever goes last frees the rest.
class PageStore {
 public:
  // Never replaced: the pages of a snapshot that nothing will succeed.
  static constexpr uint64_t kNeverReplaced = ~uint64_t{0};

  PageStore() = default;
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;
  ~PageStore() {
    for (const Retired& r : retired_) delete r.page;
  }

  // Registers a live snapshot version.
  void Pin(uint64_t version) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.insert(version);
  }

  // Hands over pages that snapshots from version `death` on no longer hold.
  // The caller still holds a snapshot that holds them.
  void Retire(const std::vector<Page*>& pages, uint64_t death) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Page* page : pages) retired_.push_back({page, death});
  }

  // Unregisters a snapshot version and frees every retired page that no
  // live snapshot holds any more.
  void Unpin(uint64_t version) {
    std::vector<Page*> dead;
    {
      std::lock_guard<std::mutex> lock(mu_);
      live_.erase(version);
      const auto held = [&](const Retired& r) {
        const auto it = live_.lower_bound(r.page->birth);
        return it != live_.end() && *it < r.death;
      };
      const auto freed =
          std::partition(retired_.begin(), retired_.end(), held);
      for (auto it = freed; it != retired_.end(); ++it) {
        dead.push_back(it->page);
      }
      retired_.erase(freed, retired_.end());
    }
    for (Page* page : dead) delete page;
  }

 private:
  struct Retired {
    Page* page;
    uint64_t death;  // first version that no longer holds the page
  };

  std::mutex mu_;
  std::set<uint64_t> live_;
  std::vector<Retired> retired_;
};

SnapshotData::~SnapshotData() {
  if (store != nullptr) store->Unpin(version);
}

}  // namespace internal

namespace {

using internal::kPageBits;
using internal::kPageMask;
using internal::kPageSize;
using internal::Page;
using internal::PageStore;
using internal::SnapshotData;

[[noreturn]] void DieF(const char* message) {
  std::fprintf(stderr, "fatal: %s\n", message);
  std::abort();
}

void DeleteSnapshotData(void* p) { delete static_cast<SnapshotData*>(p); }

// Throws std::out_of_range for the first endpoint in `edges` that is not a
// vertex of an n-vertex index.
void CheckEndpoints(const std::vector<Edge>& edges, NodeId n) {
  for (const Edge& e : edges) {
    if (e.u >= n) internal::ThrowNodeOutOfRange(e.u, n);
    if (e.v >= n) internal::ThrowNodeOutOfRange(e.v, n);
  }
}

uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// A snapshot of `version` whose pages `store` frees.
SnapshotData* NewSnapshotData(std::shared_ptr<PageStore> store,
                              uint64_t version) {
  auto* data = new SnapshotData();
  store->Pin(version);
  data->store = std::move(store);
  data->version = version;
  return data;
}

// Retires every page of `data` as of version `death`.
void RetirePages(const SnapshotData& data, uint64_t death) {
  data.store->Retire(data.labels, death);
  data.store->Retire(data.sizes, death);
}

// The full publication: one sweep over a fully compressed labeling copies
// it into fresh label pages, counts every component's size into fresh size
// pages, and counts the components.
SnapshotData* MakeSnapshotData(const std::vector<NodeId>& labels,
                               std::shared_ptr<PageStore> store,
                               uint64_t version) {
  SnapshotData* data = NewSnapshotData(std::move(store), version);
  const NodeId n = static_cast<NodeId>(labels.size());
  const size_t pages = (static_cast<size_t>(n) + kPageSize - 1) >> kPageBits;
  data->num_nodes = n;
  data->labels.resize(pages);
  data->sizes.resize(pages);
  // Allocated on this thread, not the pool's: freed pages then return to
  // the allocator arena the mutator's own later allocations draw from.
  for (size_t p = 0; p < pages; ++p) {
    data->labels[p] = new Page{version, {}};
    data->sizes[p] = new Page{version, {}};
  }
  std::atomic<NodeId> components{0};
  ParallelForBlocked(0, pages, [&](size_t lo, size_t hi) {
    LabelRunCounter counter([&](NodeId label, NodeId count) {
      FetchAdd<NodeId>(&data->sizes[label >> kPageBits]->at[label & kPageMask],
                       count);
    });
    NodeId roots = 0;
    for (size_t p = lo; p < hi; ++p) {
      NodeId* out = data->labels[p]->at;
      const size_t begin = p << kPageBits;
      const size_t end = std::min<size_t>(n, begin + kPageSize);
      for (size_t v = begin; v < end; ++v) {
        const NodeId label = labels[v];
        out[v - begin] = label;
        roots += label == v;
        counter.Count(label);
      }
    }
    counter.Flush();
    components.fetch_add(roots, std::memory_order_relaxed);
  });
  data->num_components = components.load(std::memory_order_relaxed);
  return data;
}

// A snapshot of `version` that shares every page of `prev`.
std::unique_ptr<SnapshotData> ShareSnapshotData(const SnapshotData& prev,
                                                uint64_t version) {
  std::unique_ptr<SnapshotData> data(NewSnapshotData(prev.store, version));
  data->num_nodes = prev.num_nodes;
  data->num_components = prev.num_components;
  data->labels = prev.labels;
  data->sizes = prev.sizes;
  return data;
}

// The first n entries of a page table as one flat array.
std::vector<NodeId> Materialize(const std::vector<Page*>& pages, NodeId n) {
  std::vector<NodeId> out(n);
  ParallelFor(0, pages.size(), [&](size_t p) {
    const size_t begin = p << kPageBits;
    const size_t count = std::min<size_t>(kPageSize, n - begin);
    std::memcpy(out.data() + begin, pages[p]->at, count * sizeof(NodeId));
  });
  return out;
}

// Every component size indexed by vertex (0 for non-representatives).
std::vector<NodeId> MaterializeSizes(const SnapshotData& data) {
  const std::vector<NodeId> labels = Materialize(data.labels, data.num_nodes);
  std::vector<NodeId> sizes = Materialize(data.sizes, data.num_nodes);
  ParallelFor(0, sizes.size(), [&](size_t v) {
    if (labels[v] != v) sizes[v] = 0;
  });
  return sizes;
}

// Writes into one page table of a snapshot being built under `version`.
// The first write to a page shared with an older snapshot replaces it by a
// copy born in `version`, so no published page is ever written; the
// replaced pages are retired once the batch is done.
class PageWriter {
 public:
  PageWriter(std::vector<Page*>* pages, uint64_t version)
      : pages_(*pages), version_(version) {}

  void Set(NodeId i, NodeId value) {
    Page*& page = pages_[i >> kPageBits];
    if (page->birth != version_) {
      replaced_.push_back(page);
      page = new Page(*page);
      page->birth = version_;
    }
    page->at[i & kPageMask] = value;
  }

  const std::vector<Page*>& replaced() const { return replaced_; }

 private:
  std::vector<Page*>& pages_;
  const uint64_t version_;
  std::vector<Page*> replaced_;
};

// Builds an owning handle of `target` representation from a flat CSR
// reference. Only the kCsr target needs to copy `flat`; the other
// converters build independent owning structures from the reference.
GraphHandle FromFlat(const Graph& flat, GraphRepresentation target,
                     size_t shards) {
  switch (target) {
    case GraphRepresentation::kCsr:
      return GraphHandle::Adopt(Graph(flat));
    case GraphRepresentation::kCompressed:
      return GraphHandle::Compress(flat);
    case GraphRepresentation::kCoo:
      return GraphHandle::Adopt(ExtractEdges(flat));
    case GraphRepresentation::kSharded:
      return GraphHandle::Shard(flat, shards);
    case GraphRepresentation::kMapped:
      // Round-trips through a temporary .cgc container: the handle serves
      // the flat arrays zero-copy from the (unlinked) mapping.
      return GraphHandle::MapTempOrDie(flat);
  }
  return GraphHandle();
}

// The Spec-requested representation of `in`, reusing the input when it
// already matches (and, for sharded targets, the shard count agrees or was
// left defaulted). Conversions produce owning handles and work from a
// flat-CSR *reference* (the input's own CSR, or the cached materialization
// for COO/sharded sources) — no intermediate whole-graph copy; only a
// compressed source decodes into a temporary.
GraphHandle ConvertTo(const GraphHandle& in, GraphRepresentation target,
                      size_t shards) {
  if (in.representation() == target &&
      (target != GraphRepresentation::kSharded || shards == 0 ||
       in.sharded()->num_shards() == shards)) {
    return in;
  }
  if (in.representation() == GraphRepresentation::kCompressed) {
    // The only representation without a flat form on hand: decompress
    // (parallel, exact CSR reconstruction), then convert.
    Graph decoded = in.compressed()->Decode();
    if (target == GraphRepresentation::kCsr) {
      return GraphHandle::Adopt(std::move(decoded));
    }
    return FromFlat(decoded, target, shards);
  }
  const Graph& flat = in.representation() == GraphRepresentation::kCsr
                          ? *in.csr()
                          : in.MaterializedCsr();
  return FromFlat(flat, target, shards);
}

}  // namespace

// ---- Snapshot ----

Snapshot::~Snapshot() { Release(); }

void Snapshot::Release() {
  const SnapshotData* data = data_;
  data_ = nullptr;
  if (data == nullptr) return;
  // The instant our reference is dropped, a concurrent reclaim pass may
  // observe refs==0 and free the block, so no field may be touched after
  // fetch_sub.
  if (data->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Every handle pins a published block. If its publisher has replaced
    // it, it sits in the epoch domain's retire list and we just dropped
    // the last reference keeping it there: sweep now instead of waiting
    // for the next publication.
    epoch::Domain::Global().TryReclaim();
  }
}

Snapshot::Snapshot(const Snapshot& other) : data_(other.data_) {
  if (data_ != nullptr) data_->refs.fetch_add(1, std::memory_order_relaxed);
}

Snapshot& Snapshot::operator=(const Snapshot& other) {
  if (this != &other) {
    if (other.data_ != nullptr) {
      other.data_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Release();
    data_ = other.data_;
  }
  return *this;
}

Snapshot::Snapshot(Snapshot&& other) noexcept : data_(other.data_) {
  other.data_ = nullptr;
}

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = other.data_;
    other.data_ = nullptr;
  }
  return *this;
}

std::vector<NodeId> Snapshot::ComponentSizes() const {
  if (data_ == nullptr) return {};
  return MaterializeSizes(*data_);
}

std::vector<NodeId> Snapshot::Labels() const {
  if (data_ == nullptr) return {};
  return Materialize(data_->labels, data_->num_nodes);
}

// ---- Connectivity::Spec ----

Connectivity::Spec Connectivity::Spec::Auto(const GraphHandle& graph,
                                            bool streaming) {
  Spec spec;  // DefaultVariant: fastest all-around, root-based, streamable.
  const NodeId n = graph.num_nodes();
  const double avg_degree =
      n == 0 ? 0.0 : static_cast<double>(graph.num_arcs()) / n;
  if (graph.representation() == GraphRepresentation::kCoo) {
    // Unsampled keeps the whole lifecycle COO-native (edge-centric default
    // variant, so neither Build nor a streaming seed ever builds a CSR).
    return spec;
  }
  if (graph.representation() == GraphRepresentation::kMapped) {
    // A mapped source stays mapped: converting would materialize the very
    // arrays the zero-copy container avoids loading, and the mapping serves
    // the full adjacency surface, so sampling is the only lever worth
    // pulling.
    if (avg_degree >= 4.0) spec.Sampling(SamplingConfig::KOut());
    return spec;
  }
  if (avg_degree >= 4.0) {
    spec.Sampling(SamplingConfig::KOut());
  }
  if (!streaming && graph.representation() == GraphRepresentation::kCsr &&
      avg_degree >= 8.0 && n >= (NodeId{1} << 18)) {
    // Big dense analytical pass: shard-major locality wins (see
    // ARCHITECTURE.md "Choosing a representation"). Not worth the
    // partition cost for a one-shot streaming seed.
    spec.Representation(GraphRepresentation::kSharded);
  }
  return spec;
}

Connectivity::Spec& Connectivity::Spec::Algorithm(
    const VariantDescriptor& descriptor) {
  algorithm_ = descriptor;
  return *this;
}

Connectivity::Spec& Connectivity::Spec::Algorithm(std::string_view name) {
  algorithm_ = GetVariantOrDie(name).descriptor;
  return *this;
}

// ---- Connectivity ----

Connectivity::Connectivity(Spec spec)
    : spec_(std::move(spec)), variant_(FindVariant(spec_.algorithm())) {
  if (variant_ == nullptr) {
    std::fprintf(stderr,
                 "fatal: Connectivity spec names an unregistered variant "
                 "combination (\"%s\")\n",
                 spec_.algorithm().ToString().c_str());
    std::abort();
  }
  // Head is never null: reads before the first Build serve the empty
  // labeling.
  PublishFullLocked({});
}

Connectivity::~Connectivity() { RetireSnapshot(); }

Connectivity::Connectivity(Connectivity&& other) noexcept {
  std::unique_lock<std::shared_mutex> lock(other.mu_);
  spec_ = std::move(other.spec_);
  variant_ = other.variant_;  // registry storage is static; stays valid
  graph_ = std::move(other.graph_);
  built_ = other.built_;
  streaming_ = other.streaming_;
  forest_ = std::move(other.forest_);
  insert_journal_ = std::move(other.insert_journal_);
  snapshot_.store(other.snapshot_.exchange(nullptr),
                  std::memory_order_release);
  publish_seq_ = other.publish_seq_;
  pages_ = std::move(other.pages_);
  members_ = std::move(other.members_);
  other.built_ = false;
  other.streaming_ = false;
  other.insert_journal_.clear();
  other.graph_ = GraphHandle();
  // The moved-from index reverts to un-built but must keep serving (its
  // spec stays usable): republish an empty labeling.
  other.PublishFullLocked({});
}

Connectivity& Connectivity::operator=(Connectivity&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    RetireSnapshot();
    spec_ = std::move(other.spec_);
    variant_ = other.variant_;
    graph_ = std::move(other.graph_);
    built_ = other.built_;
    streaming_ = other.streaming_;
    forest_ = std::move(other.forest_);
    insert_journal_ = std::move(other.insert_journal_);
    snapshot_.store(other.snapshot_.exchange(nullptr),
                    std::memory_order_release);
    publish_seq_ = other.publish_seq_;
    pages_ = std::move(other.pages_);
    members_ = std::move(other.members_);
    other.built_ = false;
    other.streaming_ = false;
    other.insert_journal_.clear();
    other.graph_ = GraphHandle();
    other.PublishFullLocked({});
  }
  return *this;
}

void Connectivity::SwapInLocked(SnapshotData* data) {
  publish_seq_ = data->version;
  SnapshotData* old = snapshot_.exchange(data);  // seq_cst: pairs with the
  // reader-side pin fence (see epoch.h's safety argument).
  stats::RecordSnapshotPublication();
  epoch::Domain& domain = epoch::Domain::Global();
  if (old != nullptr) domain.Retire(old, DeleteSnapshotData, &old->refs);
  domain.AdvanceAndReclaim();
}

void Connectivity::PublishFullLocked(const std::vector<NodeId>& labels) {
  if (pages_ == nullptr) pages_ = std::make_shared<PageStore>();
  const SnapshotData* prev = snapshot_.load(std::memory_order_relaxed);
  if (prev != nullptr) RetirePages(*prev, next_version());
  SwapInLocked(MakeSnapshotData(labels, pages_, next_version()));
  members_.clear();
  if (streaming_) LinkMembersLocked();
}

void Connectivity::RepublishLocked() {
  SwapInLocked(ShareSnapshotData(*snapshot_.load(std::memory_order_relaxed),
                                 next_version())
                   .release());
}

void Connectivity::LinkMembersLocked() {
  // One cycle per component: every vertex goes in right after its
  // representative.
  const SnapshotData& head = *snapshot_.load(std::memory_order_relaxed);
  const NodeId n = head.num_nodes;
  members_.resize(n);
  ParallelFor(0, n, [&](size_t v) { members_[v] = static_cast<NodeId>(v); });
  for (NodeId v = 0; v < n; ++v) {
    const NodeId rep = head.Label(v);
    if (rep == v) continue;
    members_[v] = members_[rep];
    members_[rep] = v;
  }
}

std::vector<uint8_t> Connectivity::AnswerLocked(
    const std::vector<Edge>& queries) const {
  const SnapshotData& head = *snapshot_.load(std::memory_order_relaxed);
  std::vector<uint8_t> results(queries.size());
  ParallelFor(0, queries.size(), [&](size_t i) {
    results[i] = head.Label(queries[i].u) == head.Label(queries[i].v) ? 1 : 0;
  });
  return results;
}

void Connectivity::PublishInsertLocked(const std::vector<Edge>& updates) {
  const SnapshotData& prev = *snapshot_.load(std::memory_order_relaxed);
  const uint64_t version = next_version();
  std::unique_ptr<SnapshotData> next = ShareSnapshotData(prev, version);
  // The pre-batch labels of every endpoint, loaded in one pass so that
  // their cache misses overlap.
  std::vector<std::pair<NodeId, NodeId>> ends(updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    ends[i] = {prev.Label(updates[i].u), prev.Label(updates[i].v)};
  }
  // Group the batch's edges by those labels. The larger side of every
  // merge keeps its label, so a relabelled vertex's component at least
  // doubles: O(n log n) relabels over any insert sequence.
  SparseUnion groups;
  std::unordered_map<NodeId, NodeId> merged_size;  // group root -> size
  const auto size_of = [&](NodeId root) {
    const auto it = merged_size.find(root);
    return it == merged_size.end() ? prev.Size(root) : it->second;
  };
  for (const auto& [a, b] : ends) {
    if (a == b) continue;
    NodeId size = 0;
    const auto [winner, loser] =
        groups.Unite(a, b, [&](NodeId root_a, NodeId root_b) {
          const NodeId size_a = size_of(root_a);
          const NodeId size_b = size_of(root_b);
          size = size_a + size_b;
          return size_a >= size_b;
        });
    if (loser == kInvalidNode) continue;
    merged_size[winner] = size;
    --next->num_components;
  }
  PageWriter labels(&next->labels, version);
  PageWriter sizes(&next->sizes, version);
  groups.ForEachMerged([&](NodeId label, NodeId root) {
    // Relabel the merged-away component's members, then splice its member
    // list into the root's. Its stale size entry stays: no longer a
    // representative, it is never read.
    NodeId v = label;
    do {
      labels.Set(v, root);
      v = members_[v];
    } while (v != label);
    std::swap(members_[label], members_[root]);
  });
  for (const auto& [root, size] : merged_size) {
    if (groups.Find(root) == root) sizes.Set(root, size);
  }
  pages_->Retire(labels.replaced(), version);
  pages_->Retire(sizes.replaced(), version);
  SwapInLocked(next.release());
}

void Connectivity::RetireSnapshot() {
  SnapshotData* old = snapshot_.exchange(nullptr);
  if (old == nullptr) return;
  RetirePages(*old, PageStore::kNeverReplaced);
  epoch::Domain& domain = epoch::Domain::Global();
  domain.Retire(old, DeleteSnapshotData, &old->refs);
  domain.AdvanceAndReclaim();
}

Connectivity& Connectivity::Build(const GraphHandle& graph) {
  GraphHandle prepared =
      spec_.representation().has_value()
          ? ConvertTo(graph, *spec_.representation(), spec_.shards())
          : graph;
  // The pass runs outside the lock so readers keep serving the previous
  // labeling until the swap below.
  std::vector<NodeId> labels = variant_->run(prepared, spec_.sampling());
  std::unique_lock<std::shared_mutex> lock(mu_);
  graph_ = std::move(prepared);
  built_ = true;
  streaming_ = false;
  forest_.reset();
  insert_journal_.clear();
  PublishFullLocked(labels);
  return *this;
}

Connectivity& Connectivity::Stream() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CheckBuilt("Stream");
  CheckStreamable();
  // The batches start from the published labeling, current after any
  // Build, Insert or Erase: the same pages go out under a new version.
  streaming_ = true;
  RepublishLocked();
  LinkMembersLocked();
  return *this;
}

Connectivity& Connectivity::Stream(NodeId num_nodes) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  CheckStreamable();
  streaming_ = true;
  graph_ = GraphHandle();
  built_ = false;  // no static graph behind this state
  forest_.reset();
  insert_journal_.clear();
  PublishFullLocked(IdentityLabels(num_nodes));
  return *this;
}

bool Connectivity::streaming() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return streaming_;
}

std::vector<uint8_t> Connectivity::Insert(const std::vector<Edge>& updates,
                                          const std::vector<Edge>& queries) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!streaming_) DieF("Connectivity::Insert requires Stream() first");
  // Before any structure changes: a rejected batch leaves no trace.
  const NodeId n = snapshot_.load(std::memory_order_relaxed)->num_nodes;
  CheckEndpoints(updates, n);
  CheckEndpoints(queries, n);
  // Keep the deletion layer in step: an armed forest absorbs the batch
  // directly; before the first Erase the journal records it for the
  // arming replay (see ArmForestLocked).
  if (forest_ != nullptr) {
    forest_->InsertBatch(updates);
  } else {
    insert_journal_.insert(insert_journal_.end(), updates.begin(),
                           updates.end());
  }
  // Readers switch labelings at the pointer swap — never mid-batch.
  const uint64_t publish_start_us = SteadyNowUs();
  PublishInsertLocked(updates);
  stats::RecordPublicationCost(SteadyNowUs() - publish_start_us);
  return AnswerLocked(queries);
}

void Connectivity::ArmForestLocked() {
  forest_ = std::make_unique<DynamicForest>(
      snapshot_.load(std::memory_order_relaxed)->num_nodes);
  if (built_) {
    // Seed from the built graph through the variant's own spanning-forest
    // pass (every streaming-capable variant is root-based, so run_forest
    // is always available here). Representation-native like Build: a COO
    // handle seeds without materializing a CSR, a sharded one without
    // flattening.
    forest_->AdoptGraph(graph_,
                        variant_->run_forest(graph_, spec_.sampling()));
  }
  if (!insert_journal_.empty()) {
    forest_->InsertBatch(insert_journal_);
    insert_journal_.clear();
    insert_journal_.shrink_to_fit();
  }
}

std::vector<uint8_t> Connectivity::Erase(const std::vector<Edge>& updates,
                                         const std::vector<Edge>& queries) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!streaming_) DieF("Connectivity::Erase requires Stream() first");
  // Out-of-range updates are misses (EraseBatch skips them); queries must
  // name vertices, checked before the forest arms or any edge goes.
  CheckEndpoints(queries,
                 snapshot_.load(std::memory_order_relaxed)->num_nodes);
  if (forest_ == nullptr) ArmForestLocked();
  const DynamicForest::EraseStats batch = forest_->EraseBatch(updates);
  stats::RecordEraseBatch(batch.erased, batch.misses, batch.forest_hits,
                          batch.replacement_searches,
                          batch.components_split);
  // Published before Erase returns, like Insert: a split publishes the
  // forest's labeling; otherwise the same pages go out under a new version.
  if (batch.labels_changed) {
    PublishFullLocked(forest_->Labels());
  } else {
    RepublishLocked();
  }
  return AnswerLocked(queries);
}

SpanningForestResult Connectivity::SpanningForest() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  CheckBuilt("SpanningForest");
  if (!variant_->root_based) {
    DieF("Connectivity::SpanningForest: the configured variant is not "
         "root-based (check variant().root_based)");
  }
  return variant_->run_forest(graph_, spec_.sampling());
}

NodeId Connectivity::Component(NodeId v) const {
  epoch::Domain::Guard guard;
  return snapshot_.load(std::memory_order_acquire)->Label(v);
}

bool Connectivity::SameComponent(NodeId u, NodeId v) const {
  epoch::Domain::Guard guard;
  const SnapshotData* data = snapshot_.load(std::memory_order_acquire);
  return data->Label(u) == data->Label(v);
}

NodeId Connectivity::NumComponents() const {
  epoch::Domain::Guard guard;
  return snapshot_.load(std::memory_order_acquire)->num_components;
}

std::vector<NodeId> Connectivity::ComponentSizes() const {
  epoch::Domain::Guard guard;
  return MaterializeSizes(*snapshot_.load(std::memory_order_acquire));
}

std::vector<NodeId> Connectivity::Labels() const {
  epoch::Domain::Guard guard;
  const SnapshotData* data = snapshot_.load(std::memory_order_acquire);
  return Materialize(data->labels, data->num_nodes);
}

Snapshot Connectivity::Acquire() const {
  epoch::Domain::Guard guard;
  const SnapshotData* data = snapshot_.load(std::memory_order_acquire);
  // The guard keeps the block alive across this increment even if a
  // concurrent publication just retired it; afterwards the reference does.
  data->refs.fetch_add(1, std::memory_order_acq_rel);
  return Snapshot(data);
}

NodeId Connectivity::num_nodes() const {
  epoch::Domain::Guard guard;
  return snapshot_.load(std::memory_order_acquire)->num_nodes;
}

GraphRepresentation Connectivity::representation() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return graph_.representation();
}

void Connectivity::CheckStreamable() const {
  if (!variant_->supports_streaming) {
    DieF("Connectivity::Stream: the configured variant has no streaming "
         "form (check variant().supports_streaming)");
  }
}

void Connectivity::CheckBuilt(const char* op) const {
  if (!built_) {
    std::fprintf(stderr, "fatal: Connectivity::%s requires Build() first\n",
                 op);
    std::abort();
  }
}

}  // namespace connectit
