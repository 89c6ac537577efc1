#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <queue>
#include <tuple>
#include <utility>

namespace perfbench {

namespace {

std::string at(const char* what, std::uint64_t v) {
  return std::string(what) + " at vertex " + std::to_string(v);
}

bool close(double reference, double value, double rel_tol) {
  if (std::isinf(reference) || std::isinf(value)) return reference == value;
  return std::fabs(value - reference) <=
         rel_tol * std::max(1.0, std::fabs(reference));
}

struct UnionFind {
  explicit UnionFind(std::size_t n) : up(n) {
    std::iota(up.begin(), up.end(), Vertex{0});
  }
  Vertex find(Vertex v) {
    while (up[v] != v) v = up[v] = up[up[v]];
    return v;
  }
  bool unite(Vertex a, Vertex b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    up[std::max(a, b)] = std::min(a, b);
    return true;
  }
  std::vector<Vertex> up;
};

}  // namespace

std::vector<std::uint32_t> bfs_levels(const Graph& g, Vertex root) {
  std::vector<std::uint32_t> level(g.num_vertices(), kUnreached);
  std::vector<Vertex> frontier{root};
  level[root] = 0;
  for (std::uint32_t depth = 1; !frontier.empty(); ++depth) {
    std::vector<Vertex> next;
    for (const Vertex u : frontier) {
      for (const Vertex w : g.neighbors(u)) {
        if (level[w] != kUnreached) continue;
        level[w] = depth;
        next.push_back(w);
      }
    }
    frontier.swap(next);
  }
  return level;
}

Components components(const Graph& g) {
  UnionFind uf(g.num_vertices());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (const Vertex w : g.neighbors(u)) uf.unite(u, w);
  }
  Components c;
  c.label.resize(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    c.label[v] = uf.find(v);
    if (c.label[v] == v) ++c.count;
  }
  return c;
}

std::vector<double> dijkstra(const Graph& g, Vertex source) {
  std::vector<double> dist(g.num_vertices(), kInf);
  using Item = std::pair<double, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[source] = 0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    const auto nbrs = g.neighbors(u);
    const auto w = g.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const double nd = d + static_cast<double>(w[i]);
      if (nd < dist[nbrs[i]]) {
        dist[nbrs[i]] = nd;
        heap.push({nd, nbrs[i]});
      }
    }
  }
  return dist;
}

Forest kruskal(const Graph& g) {
  std::vector<std::tuple<float, Vertex, Vertex>> arcs;
  arcs.reserve(g.num_edges());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto w = g.weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      arcs.emplace_back(w[i], u, nbrs[i]);
    }
  }
  std::sort(arcs.begin(), arcs.end());
  UnionFind uf(g.num_vertices());
  Forest f;
  for (const auto& [w, u, v] : arcs) {
    if (!uf.unite(u, v)) continue;
    f.weight += static_cast<double>(w);
    ++f.edges;
  }
  return f;
}

std::vector<double> push_pagerank(const Graph& g, int iterations,
                                  double damping) {
  const Vertex n = g.num_vertices();
  const double base = (1.0 - damping) / static_cast<double>(n);
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (int it = 0; it < iterations; ++it) {
    std::fill(next.begin(), next.end(), base);
    for (Vertex u = 0; u < n; ++u) {
      const auto nbrs = g.neighbors(u);
      if (nbrs.empty()) continue;
      const double push =
          damping * rank[u] / static_cast<double>(nbrs.size());
      for (const Vertex w : nbrs) next[w] += push;
    }
    rank.swap(next);
  }
  return rank;
}

std::string check_bfs(const Graph& g, Vertex root,
                      const std::vector<std::uint32_t>& levels,
                      const std::vector<Vertex>& parent) {
  const Vertex n = g.num_vertices();
  if (parent.size() != n) return "parent array has the wrong size";
  if (parent[root] != root) return "root is not its own parent";
  // has_arc[v]: some arc parent[v] -> v exists. One pass over the arcs
  // instead of one adjacency scan per child keeps the check O(|E|).
  std::vector<char> has_arc(n, 0);
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex w : g.neighbors(u)) {
      if (parent[w] == u) has_arc[w] = 1;
    }
  }
  for (Vertex v = 0; v < n; ++v) {
    if (levels[v] == kUnreached) {
      if (parent[v] != aam::graph::kInvalidVertex) {
        return at("unreachable vertex has a parent", v);
      }
      continue;
    }
    if (v == root) continue;
    const Vertex p = parent[v];
    if (p == aam::graph::kInvalidVertex) {
      return at("reachable vertex has no parent", v);
    }
    if (p >= n || levels[p] + 1 != levels[v]) {
      return at("parent is not one level up", v);
    }
    if (!has_arc[v]) return at("parent is not a neighbour", v);
  }
  return {};
}

std::string check_st_conn(const Components& comps, Vertex s, Vertex t,
                          bool connected) {
  const bool expected = comps.label[s] == comps.label[t];
  if (connected == expected) return {};
  return expected ? "connected pair reported unconnected"
                  : "unconnected pair reported connected";
}

std::string check_sssp(const std::vector<double>& reference,
                       const std::vector<double>& distance) {
  if (distance.size() != reference.size()) {
    return "distance array has the wrong size";
  }
  for (std::size_t v = 0; v < reference.size(); ++v) {
    if (!close(reference[v], distance[v], 1e-9)) {
      return at("distance differs from Dijkstra", v);
    }
  }
  return {};
}

std::string check_forest(const Forest& reference, const Components& comps,
                         double weight, std::uint64_t edges) {
  const std::uint64_t n = comps.label.size();
  if (edges != n - comps.count) {
    return "forest has " + std::to_string(edges) + " edges, expected " +
           std::to_string(n - comps.count);
  }
  if (!close(reference.weight, weight, 1e-9)) {
    return "forest weight " + std::to_string(weight) + " differs from " +
           "Kruskal's " + std::to_string(reference.weight);
  }
  return {};
}

std::string check_coloring(const Graph& g,
                           const std::vector<std::uint32_t>& color) {
  const Vertex n = g.num_vertices();
  if (color.size() != n) return "color array has the wrong size";
  std::uint32_t max_degree = 0;
  for (Vertex v = 0; v < n; ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  for (Vertex u = 0; u < n; ++u) {
    if (color[u] == 0) return at("vertex is uncolored", u);
    if (color[u] > max_degree + 1) return at("color exceeds degree + 1", u);
    for (const Vertex w : g.neighbors(u)) {
      if (w != u && color[w] == color[u]) {
        return at("neighbours share a color", u);
      }
    }
  }
  return {};
}

std::string check_ranks(const std::vector<double>& reference,
                        const std::vector<double>& rank, double rel_tol) {
  if (rank.size() != reference.size()) return "rank array has the wrong size";
  for (std::size_t v = 0; v < reference.size(); ++v) {
    if (!(std::fabs(rank[v] - reference[v]) <=
          rel_tol * std::fabs(reference[v]))) {
      return at("rank differs from push PageRank", v);
    }
  }
  return {};
}

}  // namespace perfbench
