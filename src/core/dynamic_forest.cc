#include "src/core/dynamic_forest.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <functional>
#include <type_traits>

#include "src/parallel/primitives.h"
#include "src/parallel/thread_pool.h"

namespace connectit {

namespace {

// Keys a bulk insert gathers, prefetching each one's first probe slot,
// before it inserts any of them (the gather-then-prefetch loop of
// KOutPass): the probes' cache misses overlap instead of queueing.
constexpr size_t kKeyBatch = 32;

// Inserts every key that for_each_key(emit) emits as emit(key, tag) into
// `set`, in emission order; on_insert(tag, inserted) sees each result.
template <typename ForEachKey, typename OnInsert>
void InsertBatched(EdgeKeySet& set, ForEachKey&& for_each_key,
                   OnInsert&& on_insert) {
  uint64_t keys[kKeyBatch];
  size_t tags[kKeyBatch];
  size_t size = 0;
  const auto flush = [&] {
    for (size_t i = 0; i < size; ++i) on_insert(tags[i], set.Insert(keys[i]));
    size = 0;
  };
  for_each_key([&](uint64_t key, size_t tag) {
    set.Prefetch(key);
    keys[size] = key;
    tags[size++] = tag;
    if (size == kKeyBatch) flush();
  });
  flush();
}

// Splits [0, degree.size()) into `parts` ranges of consecutive vertices of
// about equal total degree; returns the parts + 1 range bounds.
std::vector<NodeId> SplitByDegree(const std::vector<EdgeId>& degree,
                                  size_t parts) {
  const NodeId n = static_cast<NodeId>(degree.size());
  EdgeId total = 0;
  for (const EdgeId d : degree) total += d;
  std::vector<NodeId> bounds = {0};
  EdgeId seen = 0;
  for (NodeId v = 0; v < n && bounds.size() < parts; ++v) {
    seen += degree[v];
    while (bounds.size() < parts && seen * parts >= total * bounds.size()) {
      bounds.push_back(v + 1);
    }
  }
  bounds.resize(parts + 1, n);
  return bounds;
}

}  // namespace

DynamicForest::DynamicForest(NodeId n) : adj_(n), labels_(n) {
  ParallelFor(0, n, [&](size_t v) { labels_[v] = static_cast<NodeId>(v); });
}

void DynamicForest::AdoptGraph(const GraphHandle& graph,
                               const SpanningForestResult& forest) {
  const NodeId n = num_nodes();
  std::vector<EdgeId> degree(n, 0);  // final length of every list
  graph.Visit([&](const auto& g) {
    using G = std::decay_t<decltype(g)>;
    if constexpr (std::is_same_v<G, EdgeList>) {
      // COO stays native: the raw edge list may carry duplicates and
      // self-loops, which InsertBatch drops, matching what BuildGraph's
      // symmetrize/dedup would have produced. One pass in input order
      // keeps each key's first occurrence, the edges InsertBatch keeps,
      // and counts their endpoints; the input size bounds the kept keys.
      const std::vector<Edge>& edges = g.edges;
      std::vector<uint8_t> kept(edges.size(), 0);
      edges_.Reserve(edges.size());
      InsertBatched(
          edges_,
          [&](const auto& emit) {
            for (size_t i = 0; i < edges.size(); ++i) {
              const auto [u, v] = edges[i];
              if (u != v) emit(Key(u, v), i);
            }
          },
          [&](size_t i, bool inserted) {
            if (!inserted) return;
            kept[i] = 1;
            ++degree[edges[i].u];
            ++degree[edges[i].v];
          });
      // Each part scans every kept edge in input order and appends the
      // arcs of its own vertices, so each list keeps InsertBatch's order.
      ReserveLists(degree);
      const std::vector<NodeId> bounds = SplitByDegree(degree, NumWorkers());
      ParallelFor(
          0, bounds.size() - 1,
          [&](size_t part) {
            const NodeId lo = bounds[part];
            const NodeId hi = bounds[part + 1];
            for (size_t i = 0; i < edges.size(); ++i) {
              if (!kept[i]) continue;
              const auto [u, v] = edges[i];
              if (u >= lo && u < hi) adj_[u].push_back(v);
              if (v >= lo && v < hi) adj_[v].push_back(u);
            }
          },
          1);
    } else {
      // Adjacency representations (CSR, compressed, sharded, mapped) store
      // each undirected edge in both directions and are already
      // deduplicated; the u < v filter takes each once. Per-vertex lists
      // fill in parallel, then the key set is built in one pass.
      std::atomic<EdgeId> forward{0};  // arcs with u < v
      ParallelForBlocked(0, n, [&](size_t lo, size_t hi) {
        EdgeId local = 0;
        for (size_t ui = lo; ui < hi; ++ui) {
          const NodeId u = static_cast<NodeId>(ui);
          g.MapNeighbors(u, [&](NodeId v) {
            degree[u] += u != v;
            local += u < v;
          });
        }
        forward.fetch_add(local, std::memory_order_relaxed);
      });
      ReserveLists(degree);
      ParallelFor(0, n, [&](size_t ui) {
        const NodeId u = static_cast<NodeId>(ui);
        g.MapNeighbors(u, [&](NodeId v) {
          if (u != v) adj_[u].push_back(v);
        });
      });
      edges_.Reserve(forward.load(std::memory_order_relaxed));
      InsertBatched(
          edges_,
          [&](const auto& emit) {
            for (NodeId u = 0; u < n; ++u) {
              for (const NodeId v : adj_[u]) {
                if (u < v) emit(Key(u, v), 0);
              }
            }
          },
          [](size_t, bool) {});
    }
  });
  forest_.Reserve(forest.edges.size());
  InsertBatched(
      forest_,
      [&](const auto& emit) {
        for (const Edge& e : forest.edges) emit(Key(e.u, e.v), 0);
      },
      [](size_t, bool) {});
  // run_forest labels are vertex ids, so the minimum vertex of each label
  // is the canonical (CanonicalizeLabels) label of its class.
  const std::vector<NodeId> min_of = MinIndexPerLabel(forest.labels);
  ParallelFor(0, n, [&](size_t v) { labels_[v] = min_of[forest.labels[v]]; });
}

void DynamicForest::ReserveLists(const std::vector<EdgeId>& degree) {
  for (NodeId v = 0; v < num_nodes(); ++v) {
    if (degree[v] > 0) adj_[v].reserve(std::bit_ceil(degree[v]));
  }
}

void DynamicForest::RemoveArc(NodeId u, NodeId v) {
  std::vector<NodeId>& nbrs = adj_[u];
  for (size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i] == v) {
      nbrs[i] = nbrs.back();
      nbrs.pop_back();
      return;
    }
  }
}

void DynamicForest::InsertBatch(const std::vector<Edge>& updates) {
  // Each new edge joins both lists and unions the touched components over
  // their canonical labels. labels_ roots are component minima and the
  // smaller root always survives, so the applied labeling stays canonical.
  InsertBatched(
      edges_,
      [&](const auto& emit) {
        for (size_t i = 0; i < updates.size(); ++i) {
          const auto [u, v] = updates[i];
          if (u != v) emit(Key(u, v), i);
        }
      },
      [&](size_t i, bool inserted) {
        if (!inserted) return;
        const auto [u, v] = updates[i];
        adj_[u].push_back(v);
        adj_[v].push_back(u);
        const NodeId loser =
            pending_.Unite(labels_[u], labels_[v], std::less<NodeId>())
                .second;
        if (loser != kInvalidNode) forest_.Insert(Key(u, v));
      });
}

void DynamicForest::ApplyPendingMerges() {
  if (pending_.empty()) return;
  pending_.Flatten();
  ParallelFor(0, labels_.size(), [&](size_t v) {
    labels_[v] = pending_.FindConst(labels_[v]);  // concurrent reads: safe
  });
  pending_.clear();
}

const std::vector<NodeId>& DynamicForest::Labels() {
  ApplyPendingMerges();
  return labels_;
}

DynamicForest::EraseStats DynamicForest::EraseBatch(
    const std::vector<Edge>& updates) {
  ApplyPendingMerges();
  EraseStats stats;
  const NodeId n = num_nodes();
  // One deletion at a time: before each, the forest spans the current
  // edges, so a deleted forest edge leaves exactly two trees to reconnect.
  for (const Edge& e : updates) {
    if (e.u == e.v || e.u >= n || e.v >= n) {
      ++stats.misses;
      continue;
    }
    const uint64_t key = Key(e.u, e.v);
    if (!edges_.Erase(key)) {
      ++stats.misses;
      continue;
    }
    RemoveArc(e.u, e.v);
    RemoveArc(e.v, e.u);
    ++stats.erased;
    if (!forest_.Erase(key)) continue;
    ++stats.forest_hits;
    ++stats.replacement_searches;
    if (!Reconnect(e.u, e.v)) ++stats.components_split;
  }
  stats.labels_changed = stats.components_split > 0;
  return stats;
}

DynamicForest::TreeWalk DynamicForest::StartWalk(NodeId root) {
  TreeWalk walk;
  walk.stamp = ++stamp_;
  walk.stack.push_back({root, 0});
  walk.seen.push_back(root);
  mark_[root] = walk.stamp;
  return walk;
}

bool DynamicForest::Step(TreeWalk& walk) {
  while (!walk.stack.empty()) {
    const NodeId x = walk.stack.back().first;
    size_t& next = walk.stack.back().second;
    if (next == adj_[x].size()) {
      walk.stack.pop_back();
      continue;
    }
    const NodeId y = adj_[x][next++];
    if (mark_[y] != walk.stamp && forest_.Contains(Key(x, y))) {
      mark_[y] = walk.stamp;
      walk.seen.push_back(y);
      walk.stack.push_back({y, 0});
    }
    return true;
  }
  return false;
}

bool DynamicForest::Reconnect(NodeId u, NodeId v) {
  if (mark_.empty() || stamp_ > ~uint32_t{0} - 2) {
    mark_.assign(num_nodes(), 0);
    stamp_ = 0;
  }
  // Walk both trees in lockstep until one is exhausted: that one, S, is
  // the smaller in adjacency entries, and each walk has scanned at most
  // as many entries as S has.
  TreeWalk walks[2] = {StartWalk(u), StartWalk(v)};
  int small = 0;
  while (Step(walks[small])) small = 1 - small;
  const TreeWalk& s = walks[small];
  // The forest spanned the component, so any edge leaving S reaches the
  // other tree: a replacement, and no label changes.
  for (const NodeId x : s.seen) {
    for (const NodeId y : adj_[x]) {
      if (mark_[y] != s.stamp) {
        forest_.Insert(Key(x, y));
        return true;
      }
    }
  }
  // S is a component of its own. Labels stay min-rooted: S takes its
  // minimum, unless it holds the old label (the old minimum), in which
  // case the other tree takes its own.
  TreeWalk& relabel = mark_[labels_[u]] == s.stamp ? walks[1 - small]
                                                   : walks[small];
  while (Step(relabel)) {
  }
  const NodeId label =
      *std::min_element(relabel.seen.begin(), relabel.seen.end());
  for (const NodeId x : relabel.seen) labels_[x] = label;
  return false;
}

}  // namespace connectit
