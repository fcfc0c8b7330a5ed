#include "src/core/dynamic_forest.h"

#include <algorithm>
#include <functional>
#include <type_traits>

#include "src/algo/verify.h"
#include "src/parallel/thread_pool.h"

namespace connectit {

DynamicForest::DynamicForest(NodeId n) : adj_(n), labels_(n) {
  ParallelFor(0, n, [&](size_t v) { labels_[v] = static_cast<NodeId>(v); });
}

void DynamicForest::AdoptGraph(const GraphHandle& graph,
                               const SpanningForestResult& forest) {
  const NodeId n = num_nodes();
  graph.Visit([&](const auto& g) {
    using G = std::decay_t<decltype(g)>;
    if constexpr (std::is_same_v<G, EdgeList>) {
      // COO stays native: the raw edge list may carry duplicates and
      // self-loops, which AddEdge drops — matching what BuildGraph's
      // symmetrize/dedup would have produced.
      for (const Edge& e : g.edges) AddEdge(e.u, e.v);
    } else {
      // Adjacency representations (CSR, compressed, sharded) store each
      // undirected edge in both directions and are already deduplicated;
      // the u < v filter takes each once. Per-vertex lists fill in
      // parallel, then the key set is built in one sequential pass.
      ParallelFor(0, n, [&](size_t ui) {
        const NodeId u = static_cast<NodeId>(ui);
        g.MapNeighbors(u, [&](NodeId v) {
          if (u != v) adj_[u].push_back(v);
        });
      });
      for (NodeId u = 0; u < n; ++u) {
        for (const NodeId v : adj_[u]) {
          if (u < v) edges_.Insert(Key(u, v));
        }
      }
    }
  });
  for (const Edge& e : forest.edges) forest_.Insert(Key(e.u, e.v));
  labels_ = CanonicalizeLabels(forest.labels);
}

bool DynamicForest::AddEdge(NodeId u, NodeId v) {
  if (u == v) return false;
  if (!edges_.Insert(Key(u, v))) return false;
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  return true;
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
  // Union the touched components over their canonical labels. labels_
  // roots are component minima and the smaller root always survives, so
  // the applied labeling stays canonical.
  for (const Edge& e : updates) {
    if (!AddEdge(e.u, e.v)) continue;
    const NodeId loser =
        pending_.Unite(labels_[e.u], labels_[e.v], std::less<NodeId>())
            .second;
    if (loser != kInvalidNode) forest_.Insert(Key(e.u, e.v));
  }
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
