#include "algorithms/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "algorithms/bfs.hpp"
#include "algorithms/boruvka.hpp"
#include "algorithms/coloring.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/st_connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/gstats.hpp"
#include "util/check.hpp"

namespace aam::algorithms {

namespace {

using graph::Vertex;
using Ids = std::vector<std::uint32_t>;
using Reals = std::vector<double>;

/// Copies the mechanism-side options every algorithm shares; batch 0 keeps
/// the algorithm's own default M.
template <typename Options>
Options options_from(const RunOptions& ro) {
  Options o;
  o.mechanism = ro.mechanism;
  if (ro.batch != 0) o.batch = ro.batch;
  o.decorator = ro.decorator;
  o.auto_policy = ro.auto_policy;
  return o;
}

template <typename... Fields>
Run make_run(double time_ns, const htm::HtmStats& stats, std::uint64_t work,
             Fields&&... fields) {
  Run run{time_ns, stats, work, {}};
  run.outputs.reserve(sizeof...(Fields));
  (run.outputs.push_back(std::forward<Fields>(fields)), ...);
  return run;
}

std::string format(const char* fmt, auto... args) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

// ---------------------------------------------------------------- bfs

Run bfs_run(htm::DesMachine& m, const Inputs& in, const RunOptions& ro) {
  auto o = options_from<BfsOptions>(ro);
  o.root = in.root;
  BfsResult r = run_bfs(m, in.g, o);
  return make_run(r.total_time_ns, r.stats, r.edges_scanned,
                  Output{"parent", std::move(r.parent)},
                  Output{"vertices_visited", r.vertices_visited},
                  Output{"edges_scanned", r.edges_scanned});
}

/// Depth of every vertex under the BFS tree `parent` (unvisited vertices
/// map to a sentinel). Level-synchronous BFS pins every depth, so this is
/// schedule-invariant even though the parents themselves are not.
std::vector<std::uint64_t> bfs_depths(const Ids& parent, Vertex root) {
  constexpr std::uint64_t kUnvisited = ~std::uint64_t{0};
  std::vector<std::uint64_t> depth(parent.size(), kUnvisited);
  if (root < parent.size()) depth[root] = 0;
  for (Vertex v = 0; v < parent.size(); ++v) {
    if (parent[v] == graph::kInvalidVertex || depth[v] != kUnvisited) continue;
    // Walk to a vertex of known depth, then unwind.
    std::vector<Vertex> chain;
    Vertex u = v;
    while (depth[u] == kUnvisited) {
      chain.push_back(u);
      u = parent[u];
    }
    std::uint64_t d = depth[u];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) depth[*it] = ++d;
  }
  return depth;
}

Projection bfs_project(const Inputs& in, const Run& run) {
  Projection p;
  p.exact = bfs_depths(run.get<Ids>("parent"), in.root);
  p.exact.push_back(run.get<std::uint64_t>("vertices_visited"));
  return p;
}

std::string bfs_check(const Inputs& in, const RunOptions&, const Run& run) {
  if (!validate_bfs_tree(in.g, in.root, run.get<Ids>("parent"))) {
    return "parent array is not a BFS tree of the graph";
  }
  return "";
}

// ----------------------------------------------------------- pagerank

Run pagerank_run(htm::DesMachine& m, const Inputs& in, const RunOptions& ro) {
  auto o = options_from<PageRankOptions>(ro);
  o.iterations = ro.pr_iterations;
  PageRankResult r = run_pagerank(m, in.g, o);
  const std::uint64_t pushes = static_cast<std::uint64_t>(o.iterations) *
                               (in.g.num_edges() + in.g.num_vertices());
  return make_run(r.total_time_ns, r.stats, pushes,
                  Output{"rank", std::move(r.rank)});
}

Projection pagerank_project(const Inputs&, const Run& run) {
  return {{}, run.get<Reals>("rank"), 1e-9};
}

std::string pagerank_check(const Inputs& in, const RunOptions& ro,
                           const Run& run) {
  const Reals& rank = run.get<Reals>("rank");
  const Reals reference =
      pagerank_reference(in.g, ro.pr_iterations, PageRankOptions{}.damping);
  if (rank.size() != reference.size()) return "rank vector has wrong size";
  for (Vertex v = 0; v < rank.size(); ++v) {
    // Relative: ranks are >= (1-d)/|V| > 0; only summation order differs.
    if (!(std::abs(rank[v] - reference[v]) <= 1e-9 * reference[v])) {
      return format("rank[%u] = %.17g, reference %.17g", v, rank[v],
                    reference[v]);
    }
  }
  return "";
}

// --------------------------------------------------------------- sssp

Run sssp_run(htm::DesMachine& m, const Inputs& in, const RunOptions& ro) {
  auto o = options_from<SsspOptions>(ro);
  o.source = in.source;
  SsspResult r = run_sssp(m, in.wg, o);
  return make_run(r.total_time_ns, r.stats, r.relaxations,
                  Output{"distance", std::move(r.distance)},
                  Output{"relaxations", r.relaxations});
}

Projection sssp_project(const Inputs&, const Run& run) {
  return {{}, run.get<Reals>("distance"), 1e-9};
}

std::string sssp_check(const Inputs& in, const RunOptions&, const Run& run) {
  const Reals& distance = run.get<Reals>("distance");
  const Reals reference = sssp_reference(in.wg, in.source);
  if (distance.size() != reference.size()) {
    return "distance vector has wrong size";
  }
  for (Vertex v = 0; v < distance.size(); ++v) {
    const bool ok =
        std::isinf(reference[v])
            ? std::isinf(distance[v])
            : std::abs(distance[v] - reference[v]) <=
                  1e-9 * std::max(1.0, reference[v]);
    if (!ok) {
      return format("distance[%u] = %.17g, Dijkstra %.17g", v, distance[v],
                    reference[v]);
    }
  }
  return "";
}

// ----------------------------------------------------------- coloring

Run coloring_run(htm::DesMachine& m, const Inputs& in, const RunOptions& ro) {
  auto o = options_from<ColoringOptions>(ro);
  o.seed = ro.seed;
  ColoringResult r = run_boman_coloring(m, in.g, o);
  return make_run(r.total_time_ns, r.stats,
                  in.g.num_vertices() + r.recolor_requests,
                  Output{"color", std::move(r.color)},
                  Output{"recolor_requests", r.recolor_requests});
}

Projection coloring_project(const Inputs& in, const Run& run) {
  return {{validate_coloring(in.g, run.get<Ids>("color")) ? 1u : 0u}, {}, 0};
}

std::string coloring_check(const Inputs& in, const RunOptions&,
                           const Run& run) {
  if (!validate_coloring(in.g, run.get<Ids>("color"))) {
    return "coloring is incomplete or improper";
  }
  return "";
}

// ------------------------------------------------------------ st-conn

Run st_conn_run(htm::DesMachine& m, const Inputs& in, const RunOptions& ro) {
  auto o = options_from<StConnOptions>(ro);
  o.s = in.root;
  o.t = in.st_t;
  const StConnResult r = run_st_connectivity(m, in.g, o);
  return make_run(r.total_time_ns, r.stats, r.vertices_colored,
                  Output{"connected", std::uint64_t{r.connected}},
                  Output{"vertices_colored", r.vertices_colored});
}

Projection st_conn_project(const Inputs&, const Run& run) {
  return {{run.get<std::uint64_t>("connected")}, {}, 0};
}

std::string st_conn_check(const Inputs& in, const RunOptions&,
                          const Run& run) {
  const bool reachable =
      graph::bfs_levels(in.g, in.root)[in.st_t] != graph::kInvalidLevel;
  const std::uint64_t connected = run.get<std::uint64_t>("connected");
  if (connected != (reachable ? 1u : 0u)) {
    return format("connected = %llu, sequential reachability says %d",
                  static_cast<unsigned long long>(connected), reachable);
  }
  return "";
}

// ------------------------------------------------------------ boruvka

Run boruvka_run(htm::DesMachine& m, const Inputs& in, const RunOptions& ro) {
  const auto o = options_from<BoruvkaOptions>(ro);
  const BoruvkaResult r = run_boruvka(m, in.wg, o);
  return make_run(r.total_time_ns, r.stats, r.edges_in_forest,
                  Output{"total_weight", r.total_weight},
                  Output{"edges_in_forest", r.edges_in_forest},
                  Output{"failed_merges", r.failed_merges});
}

Projection boruvka_project(const Inputs&, const Run& run) {
  const double weight = run.get<double>("total_weight");
  return {{run.get<std::uint64_t>("edges_in_forest")},
          {weight},
          1e-6 * std::max(1.0, weight)};
}

std::string boruvka_check(const Inputs& in, const RunOptions&,
                          const Run& run) {
  const double weight = run.get<double>("total_weight");
  const double kruskal = mst_reference_weight(in.wg);
  if (!(std::abs(weight - kruskal) <= 1e-6 * kruskal)) {
    return format("forest weight %.17g, Kruskal %.17g", weight, kruskal);
  }
  return "";
}

constexpr Algorithm kRegistry[] = {
    {"bfs", false, core::OperatorId::kBfsVisit, bfs_run, bfs_project,
     bfs_check},
    {"pagerank", false, core::OperatorId::kPagerankPush, pagerank_run,
     pagerank_project, pagerank_check},
    {"sssp", true, core::OperatorId::kSsspRelax, sssp_run, sssp_project,
     sssp_check},
    {"coloring", false, core::OperatorId::kColorAssign, coloring_run,
     coloring_project, coloring_check},
    {"st-conn", false, core::OperatorId::kStVisit, st_conn_run,
     st_conn_project, st_conn_check},
    {"boruvka", true, core::OperatorId::kUfUnion, boruvka_run,
     boruvka_project, boruvka_check},
};

template <typename R>
auto& find_output(R& run, std::string_view name) {
  for (auto& out : run.outputs) {
    if (name == out.name) return out;
  }
  AAM_CHECK_MSG(false, "run has no output of that name");
  std::abort();
}

}  // namespace

const Output& Run::output(std::string_view name) const {
  return find_output(*this, name);
}

Output& Run::output(std::string_view name) {
  return find_output(*this, name);
}

Inputs make_inputs(int scale, int edge_factor, std::uint64_t seed,
                   graph::Vertex weighted_n, double weighted_p) {
  util::Rng rng(seed);
  graph::KroneckerParams params;
  params.scale = scale;
  params.edge_factor = edge_factor;
  Inputs in;
  in.g = graph::kronecker(params, rng);
  in.root = graph::pick_nonisolated_vertex(in.g);
  in.st_t = in.root;
  for (Vertex v = in.g.num_vertices(); v-- > 0;) {
    if (v != in.root && !in.g.neighbors(v).empty()) {
      in.st_t = v;
      break;
    }
  }
  util::Rng wrng(seed + 1);
  const auto wedges = graph::erdos_renyi_edges(weighted_n, weighted_p, wrng);
  const auto weights =
      graph::random_weights(wedges.size(), 1.0f, 100.0f, wrng);
  in.wg = graph::Graph::from_weighted_edges(weighted_n, wedges, weights,
                                            /*undirected=*/true);
  return in;
}

std::span<const Algorithm> registry() { return kRegistry; }

const Algorithm& find_algorithm(std::string_view name) {
  for (const Algorithm& algo : kRegistry) {
    if (name == algo.name) return algo;
  }
  AAM_CHECK_MSG(false, "unknown algorithm name");
  std::abort();
}

}  // namespace aam::algorithms
