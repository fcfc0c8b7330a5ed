// Graph construction: edge list -> symmetric CSR.
//
// Matches the preprocessing the paper applies to its (originally directed)
// inputs: symmetrize, drop self-loops, deduplicate parallel edges.
//
// One row builder serves BuildGraph and ShardedGraph::BuildShard, and it
// never compares arcs: a partition pass scatters each arc into the bucket
// of 2^12 consecutive sources that owns it (through per-block cursors, with
// no atomics), then each bucket, while it is in cache, places its targets
// into their rows and sorts and deduplicates every short row. Transient
// memory on top of the input is a partition of 8-byte arcs (2m x 8 B when
// symmetrizing) and the raw rows (2m x 4 B); the partition is freed before
// the compacted neighbor array is allocated, and that array is not
// allocated at all when nothing was removed.
//
// Every endpoint is checked against num_nodes in every build: an edge with
// an endpoint >= num_nodes makes the build throw std::out_of_range (naming
// the edge and num_nodes) on the calling thread, so a 0-vertex list must
// hold no edges.

#ifndef CONNECTIT_GRAPH_BUILDER_H_
#define CONNECTIT_GRAPH_BUILDER_H_

#include <vector>

#include "src/graph/coo.h"
#include "src/graph/csr.h"

namespace connectit {

struct BuildOptions {
  // Insert the reverse arc for every input edge (always wanted for
  // undirected connectivity; set false only if the input is already
  // symmetric).
  bool symmetrize = true;
  // Drop (u, u) edges.
  bool remove_self_loops = true;
  // Collapse parallel edges.
  bool remove_duplicates = true;
};

// Builds a CSR graph from an edge list. Runs in parallel. Throws
// std::out_of_range if an endpoint is >= edges.num_nodes.
Graph BuildGraph(const EdgeList& edges, const BuildOptions& options = {});

// Convenience: builds from a raw initializer-style edge vector.
Graph BuildGraph(NodeId num_nodes, std::vector<Edge> edges,
                 const BuildOptions& options = {});

// The row builder behind both BuildGraph and ShardedGraph::BuildShard: the
// CSR rows of the sources in [first, first + count), each sorted by target,
// with arcs whose source lies outside the range skipped. *offsets gets
// count + 1 entries starting at 0, *neighbors the rows back to back. Every
// endpoint of every edge is still checked against edges.num_nodes.
void BuildRows(const EdgeList& edges, NodeId first, NodeId count,
               const BuildOptions& options, std::vector<EdgeId>* offsets,
               std::vector<NodeId>* neighbors);

// Extracts all undirected edges {u, v} with u < v as an EdgeList (the COO
// form used to drive streaming experiments).
EdgeList ExtractEdges(const Graph& graph);

// Applies the permutation `perm` (new id of vertex v is perm[v]) to the
// graph, producing the relabeled graph. Used by locality experiments.
Graph RelabelGraph(const Graph& graph, const std::vector<NodeId>& perm);

// A uniformly random permutation of [0, n) from `seed`.
std::vector<NodeId> RandomPermutation(NodeId n, uint64_t seed);

}  // namespace connectit

#endif  // CONNECTIT_GRAPH_BUILDER_H_
