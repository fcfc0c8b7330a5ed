// Synthetic graph generators.
//
// These substitute for the paper's real-world inputs: RMAT and
// Barabási–Albert produce the skewed low-diameter regime of social
// and Web graphs; 2-D grids produce the high-diameter sparse regime of road
// networks; Erdős–Rényi produces a uniform-degree control; the component
// mixture plants many components to exercise multi-component code paths.
// All generators are deterministic for a fixed seed.

#ifndef CONNECTIT_GRAPH_GENERATORS_H_
#define CONNECTIT_GRAPH_GENERATORS_H_

#include <cstdint>

#include "src/graph/coo.h"
#include "src/graph/csr.h"

namespace connectit {

// Recursive-matrix (RMAT) edge sampler with partition probabilities
// (a, b, c); the remaining mass 1-a-b-c falls in the fourth quadrant. The
// paper's streaming experiments use (a, b, c) = (0.5, 0.1, 0.1).
EdgeList GenerateRmatEdges(NodeId num_nodes, EdgeId num_edges, uint64_t seed,
                           double a = 0.5, double b = 0.1, double c = 0.1);
Graph GenerateRmat(NodeId num_nodes, EdgeId num_edges, uint64_t seed,
                   double a = 0.5, double b = 0.1, double c = 0.1);

// Barabási–Albert preferential attachment with `edges_per_node` out-edges
// per arriving vertex (paper uses m = 10n).
EdgeList GenerateBarabasiAlbertEdges(NodeId num_nodes, NodeId edges_per_node,
                                     uint64_t seed);
Graph GenerateBarabasiAlbert(NodeId num_nodes, NodeId edges_per_node,
                             uint64_t seed);

// G(n, m) Erdős–Rényi: m edges sampled uniformly with replacement.
EdgeList GenerateErdosRenyiEdges(NodeId num_nodes, EdgeId num_edges,
                                 uint64_t seed);
Graph GenerateErdosRenyi(NodeId num_nodes, EdgeId num_edges, uint64_t seed);

// width x height 4-neighbor grid: the high-diameter "road network" proxy.
Graph GenerateGrid(NodeId width, NodeId height);

// Simple structured graphs used heavily by tests.
Graph GeneratePath(NodeId num_nodes);
Graph GenerateCycle(NodeId num_nodes);
Graph GenerateStar(NodeId num_nodes);       // vertex 0 is the hub
Graph GenerateComplete(NodeId num_nodes);

// `num_components` independent random blobs of geometrically decreasing
// size plus isolated vertices; exercises IdentifyFrequent and
// multi-component paths (ClueWeb/Hyperlink have tens of millions of
// components). Each blob receives ~edges_per_vertex edges per member.
Graph GenerateComponentMixture(NodeId num_nodes, NodeId num_components,
                               uint64_t seed, NodeId edges_per_vertex = 4);

}  // namespace connectit

#endif  // CONNECTIT_GRAPH_GENERATORS_H_
