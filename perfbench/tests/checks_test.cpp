// Each check accepts the correct output of a small hand-made graph and
// rejects the same output with one deliberate corruption.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"

namespace {

using namespace perfbench;
using aam::graph::EdgeList;
using aam::graph::kInvalidVertex;

int failures = 0;

void expect(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", what);
  ++failures;
}

// Two components: a weighted 5-cycle with a chord {0..4}, and the edge
// {5, 6}; vertex 7 is isolated.
Graph sample_graph() {
  const EdgeList edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                          {4, 0}, {1, 3}, {5, 6}};
  const std::vector<float> weights = {1, 2, 3, 4, 5, 1.5f, 7};
  return Graph::from_weighted_edges(8, edges, weights, true);
}

void bfs() {
  const Graph g = sample_graph();
  const auto levels = bfs_levels(g, 0);
  const std::vector<Vertex> parent = {0, 0, 1, 1, 0, kInvalidVertex,
                                      kInvalidVertex, kInvalidVertex};
  expect(check_bfs(g, 0, levels, parent).empty(), "bfs accepts a BFS tree");
  auto skip_level = parent;
  skip_level[2] = 0;  // 0-2 is no edge, and 0 is two levels up
  expect(!check_bfs(g, 0, levels, skip_level).empty(),
         "bfs rejects a parent two levels up");
  auto not_edge = parent;
  not_edge[2] = 4;  // one level up, but 4-2 is no edge
  expect(!check_bfs(g, 0, levels, not_edge).empty(),
         "bfs rejects a parent that is not a neighbour");
  auto stray = parent;
  stray[5] = 6;
  expect(!check_bfs(g, 0, levels, stray).empty(),
         "bfs rejects a parent for an unreachable vertex");
}

void st_conn() {
  const Components comps = components(sample_graph());
  expect(comps.count == 3, "three components");
  expect(check_st_conn(comps, 0, 4, true).empty(), "st-conn accepts 0~4");
  expect(check_st_conn(comps, 0, 6, false).empty(), "st-conn accepts 0!~6");
  expect(!check_st_conn(comps, 0, 6, true).empty(),
         "st-conn rejects 0~6");
  expect(!check_st_conn(comps, 2, 3, false).empty(),
         "st-conn rejects 2!~3");
}

void sssp() {
  const Graph g = sample_graph();
  const auto dist = dijkstra(g, 0);
  expect(dist[3] == 2.5 && dist[4] == 5 && std::isinf(dist[6]),
         "dijkstra distances");
  expect(check_sssp(dist, dist).empty(), "sssp accepts Dijkstra");
  auto longer = dist;
  longer[3] = 3;  // the path through 2 instead of the chord
  expect(!check_sssp(dist, longer).empty(), "sssp rejects a longer path");
  auto reached = dist;
  reached[7] = 1;
  expect(!check_sssp(dist, reached).empty(),
         "sssp rejects a distance to an unreachable vertex");
}

void forest() {
  const Graph g = sample_graph();
  const Forest f = kruskal(g);
  const Components comps = components(g);
  expect(f.edges == 5 && f.weight == 1 + 1.5 + 2 + 4 + 7, "kruskal forest");
  expect(check_forest(f, comps, f.weight, f.edges).empty(),
         "forest accepts Kruskal");
  expect(!check_forest(f, comps, f.weight + 0.5, f.edges).empty(),
         "forest rejects a heavier forest");
  expect(!check_forest(f, comps, f.weight, f.edges + 1).empty(),
         "forest rejects an extra edge");
}

void coloring() {
  const Graph g = sample_graph();
  const std::vector<std::uint32_t> color = {1, 2, 1, 3, 2, 1, 2, 1};
  expect(check_coloring(g, color).empty(), "coloring accepts a coloring");
  auto clash = color;
  clash[3] = 2;  // 1-3 is an edge
  expect(!check_coloring(g, clash).empty(), "coloring rejects a clash");
  auto blank = color;
  blank[7] = 0;
  expect(!check_coloring(g, blank).empty(), "coloring rejects no color");
  auto wide = color;
  wide[7] = 5;  // max degree is 3
  expect(!check_coloring(g, wide).empty(),
         "coloring rejects a color above degree + 1");
}

void ranks() {
  const Graph g = sample_graph();
  const auto ref = push_pagerank(g, 3, 0.85);
  expect(check_ranks(ref, ref, kSharedRankTol).empty(),
         "ranks accept the reference");
  auto rounded = ref;
  for (auto& r : rounded) r *= 1 + 1e-15;
  expect(check_ranks(ref, rounded, kSharedRankTol).empty(),
         "ranks accept rounding");
  // A lost contribution: vertex 3's last push from vertex 1.
  auto lost = ref;
  lost[3] -= 0.85 * ref[1] / 3;
  expect(!check_ranks(ref, lost, kSharedRankTol).empty(),
         "shared ranks reject a lost contribution");
  expect(!check_ranks(ref, lost, kDistRankTol).empty(),
         "distributed ranks reject a lost contribution");
  // Float32 contributions: every push rounded to float.
  auto packed = ref;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    packed[v] = static_cast<double>(static_cast<float>(ref[v]));
  }
  expect(check_ranks(ref, packed, kDistRankTol).empty(),
         "distributed ranks accept float32 rounding");
  expect(!check_ranks(ref, packed, kSharedRankTol).empty(),
         "shared ranks reject float32 rounding");
  auto duplicated = ref;
  duplicated[6] += 0.85 * ref[5];
  expect(!check_ranks(ref, duplicated, kDistRankTol).empty(),
         "distributed ranks reject a duplicated contribution");
}

}  // namespace

int main() {
  bfs();
  st_conn();
  sssp();
  forest();
  coloring();
  ranks();
  if (failures != 0) {
    std::fprintf(stderr, "%d check test(s) failed\n", failures);
    return 1;
  }
  std::printf("all check tests passed\n");
  return 0;
}
