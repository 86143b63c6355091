// Basic graph family generators: paths, cycles, stars, cliques, bipartite
// cliques, grids, hypercubes and Erdős–Rényi random graphs.
//
// Tree generators live in graph/trees.hpp and regular-graph generators
// (including the high-girth instances for the lower-bound experiments) in
// graph/regular.hpp.
#pragma once

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ckp {

// Path on n >= 1 nodes: 0-1-2-...-(n-1).
Graph make_path(NodeId n);

// Cycle on n >= 3 nodes.
Graph make_cycle(NodeId n);

// Star with one hub (node 0) and n-1 leaves; n >= 1.
Graph make_star(NodeId n);

// Complete graph K_n; n >= 1.
Graph make_complete(NodeId n);

// Complete bipartite graph K_{a,b}; left side is [0, a).
Graph make_complete_bipartite(NodeId a, NodeId b);

// rows x cols grid; both >= 1.
Graph make_grid(NodeId rows, NodeId cols);

// d-dimensional hypercube on 2^d nodes; d in [0, 20].
Graph make_hypercube(int d);

// Erdős–Rényi G(n, p): each pair independently an edge with probability p.
Graph make_er(NodeId n, double p, Rng& rng);

// The Margulis expander on the torus Z_m × Z_m: every (x, y) connects to
// (x±y, y), (x±y+1, y), (x, y±x), (x, y±x+1) (mod m) — an explicit
// constant-degree expander family (degree <= 8; parallel edges collapse, so
// some vertices have smaller degree). m >= 2.
Graph make_margulis(NodeId m);

}  // namespace ckp
