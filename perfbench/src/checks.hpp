#pragma once

// Independent checks of the simulator's outputs.
//
// Every reference here is the benchmark's own sequential computation; none
// calls the program's validate_* or *_reference functions, so a fault shared
// by a simulated algorithm and its in-tree reference cannot hide. Each check
// returns an empty string on success and a one-line reason on failure.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/csr.hpp"

namespace perfbench {

using aam::graph::Graph;
using aam::graph::Vertex;

inline constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Sequential BFS levels from `root` (kUnreached for unreachable vertices).
std::vector<std::uint32_t> bfs_levels(const Graph& g, Vertex root);

/// Connected-component label of every vertex (the graph is undirected).
struct Components {
  std::vector<std::uint32_t> label;
  std::uint32_t count = 0;
};
Components components(const Graph& g);

/// Dijkstra distances from `source` over the arc weights (kInf unreachable).
std::vector<double> dijkstra(const Graph& g, Vertex source);

/// Kruskal minimum spanning forest over every arc of the weighted graph.
struct Forest {
  double weight = 0;
  std::uint64_t edges = 0;
};
Forest kruskal(const Graph& g);

/// Sequential push PageRank: every vertex starts at 1/|V|; each iteration
/// gives every vertex (1-d)/|V| and pushes d * rank / degree along each
/// out-arc; a vertex without arcs pushes nothing.
std::vector<double> push_pagerank(const Graph& g, int iterations,
                                  double damping);

/// `parent` is a BFS tree: unreachable vertices have no parent, the root is
/// its own parent, and every other parent is a neighbour one level up.
std::string check_bfs(const Graph& g, Vertex root,
                      const std::vector<std::uint32_t>& levels,
                      const std::vector<Vertex>& parent);

/// The st-connectivity answer equals reachability from `s` to `t`.
std::string check_st_conn(const Components& comps, Vertex s, Vertex t,
                          bool connected);

/// Distances equal the reference's, to a relative 1e-9.
std::string check_sssp(const std::vector<double>& reference,
                       const std::vector<double>& distance);

/// Forest weight equals Kruskal's, and the forest has |V| - components
/// edges.
std::string check_forest(const Forest& reference, const Components& comps,
                         double weight, std::uint64_t edges);

/// Every vertex is colored, no arc joins two equal colors, and no color
/// exceeds max degree + 1.
std::string check_coloring(const Graph& g,
                           const std::vector<std::uint32_t>& color);

/// Every rank is within `rel_tol` of the reference, relative to it.
std::string check_ranks(const std::vector<double>& reference,
                        const std::vector<double>& rank, double rel_tol);

/// Shared-memory PageRank sums doubles in another order than the
/// reference; the error stays near 1e-15.
inline constexpr double kSharedRankTol = 1e-10;
/// Distributed PageRank ships each contribution as a float32, a relative
/// error of 2^-24 per contribution; one lost or duplicated contribution
/// moves a rank by far more.
inline constexpr double kDistRankTol = 1e-6;

}  // namespace perfbench
