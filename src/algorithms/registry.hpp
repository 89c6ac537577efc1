#pragma once

// Algorithm registry: the paper's evaluation matrix as one table.
//
// The evaluation runs six irregular kernels (§3.3: BFS, PageRank, SSSP,
// Boman coloring, st-connectivity, Borůvka) under each synchronization
// mechanism of the executor layer. Every sweep over that matrix — the
// throughput, ablation and fault-matrix benches and the golden, conflict,
// property and checker tests — dispatches through this table instead of
// spelling out the six run_* calls itself. One entry per kernel says which
// graph it reads, which operator tags its batches, how to run it from one
// uniform set of options, how to reduce its answer to a schedule-invariant
// projection, and how to check that answer against an independent
// sequential reference.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/executor.hpp"
#include "graph/csr.hpp"
#include "htm/des_engine.hpp"

namespace aam::algorithms {

/// The shared inputs of one sweep.
struct Inputs {
  graph::Graph g;            ///< unweighted: BFS, PageRank, coloring, st-conn
  graph::Graph wg;           ///< weighted: SSSP, Borůvka
  graph::Vertex root = 0;    ///< BFS root and st-conn s
  graph::Vertex st_t = 0;    ///< st-conn t
  graph::Vertex source = 0;  ///< SSSP source
};

/// The sweeps' standard inputs: a Kronecker 2^scale graph drawn from
/// Rng(seed), rooted at its first non-isolated vertex with st_t the
/// highest-numbered other non-isolated vertex, plus an undirected weighted
/// Erdős–Rényi G(weighted_n, weighted_p) drawn from Rng(seed + 1) with
/// weights in [1, 100). SSSP starts at vertex 0.
Inputs make_inputs(int scale, int edge_factor, std::uint64_t seed,
                   graph::Vertex weighted_n, double weighted_p);

struct RunOptions {
  core::Mechanism mechanism = core::Mechanism::kHtmCoarsened;
  int batch = 0;  ///< M per coarse activity; 0 = the algorithm's default
  /// Optional dynamic-analysis wrapper (check::Checker); nullptr = none.
  core::ExecutorDecorator* decorator = nullptr;
  /// --mechanism=auto routing table; overrides `mechanism` when set.
  const core::AutoPolicy* auto_policy = nullptr;
  std::uint64_t seed = 1;  ///< coloring's tie-break seed
  int pr_iterations = 3;   ///< PageRank iterations
};

/// One named field of a run's answer.
struct Output {
  const char* name;
  std::variant<std::uint64_t, double, std::vector<std::uint32_t>,
               std::vector<double>>
      value;
};

/// The uniform result of one registry run.
struct Run {
  double time_ns = 0;  ///< simulated makespan
  htm::HtmStats stats;
  /// Deterministic element count of the run (edges scanned, relaxations,
  /// pushes, ...): the numerator of bench_throughput's elements/sec.
  std::uint64_t work = 0;
  /// The answer, in the fixed per-algorithm order the golden snapshot
  /// digests it in.
  std::vector<Output> outputs;

  /// The output named `name`; aborts when the run has none.
  const Output& output(std::string_view name) const;
  Output& output(std::string_view name);
  template <typename T>
  const T& get(std::string_view name) const {
    return std::get<T>(output(name).value);
  }
  template <typename T>
  T& get(std::string_view name) {
    return std::get<T>(output(name).value);
  }
};

/// A run's schedule-invariant answer: what must not change when fault
/// injection perturbs the schedule. Exact slots compare bit for bit,
/// approximate ones under `tolerance`.
struct Projection {
  std::vector<std::uint64_t> exact;
  std::vector<double> approx;
  double tolerance = 0;
};

struct Algorithm {
  const char* name;
  bool weighted;  ///< reads Inputs::wg instead of Inputs::g
  core::OperatorId op;
  Run (*run)(htm::DesMachine& machine, const Inputs& in,
             const RunOptions& options);
  Projection (*project)(const Inputs& in, const Run& run);
  /// "" when the answer matches the sequential reference, else what differs.
  std::string (*check)(const Inputs& in, const RunOptions& options,
                       const Run& run);
};

/// All six algorithms, in the paper's order.
std::span<const Algorithm> registry();

/// The entry named `name`; aborts on an unknown name.
const Algorithm& find_algorithm(std::string_view name);

}  // namespace aam::algorithms
