// Algorithm registry: every entry runs under every mechanism and passes its
// own reference check, each check rejects a corrupted answer, and the
// fault matrix's projections agree across mechanisms.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/executor.hpp"
#include "mem/sim_heap.hpp"
#include "model/machines.hpp"

namespace aam {
namespace {

using algorithms::Algorithm;
using algorithms::Inputs;
using algorithms::RunOptions;

const Inputs& scale8_inputs() {
  static const Inputs in =
      algorithms::make_inputs(/*scale=*/8, /*edge_factor=*/4, /*seed=*/1,
                              /*weighted_n=*/200, /*weighted_p=*/0.05);
  return in;
}

algorithms::Run run_on_fresh_machine(const Algorithm& algo,
                                     const RunOptions& options) {
  mem::SimHeap heap(std::size_t{1} << 23);
  htm::DesMachine machine(model::has_c(), model::HtmKind::kRtm, 8, heap,
                          /*seed=*/1);
  return algo.run(machine, scale8_inputs(), options);
}

TEST(Registry, ListsTheSixKernelsInPaperOrder) {
  std::vector<std::string> names;
  for (const Algorithm& algo : algorithms::registry()) {
    names.push_back(algo.name);
    EXPECT_EQ(&algorithms::find_algorithm(algo.name), &algo);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"bfs", "pagerank", "sssp",
                                             "coloring", "st-conn",
                                             "boruvka"}));
  EXPECT_TRUE(algorithms::find_algorithm("sssp").weighted);
  EXPECT_FALSE(algorithms::find_algorithm("bfs").weighted);
}

TEST(RegistryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(algorithms::find_algorithm("dfs"), "unknown algorithm");
}

TEST(Registry, EveryEntryPassesItsCheckUnderEveryMechanism) {
  for (const Algorithm& algo : algorithms::registry()) {
    for (const core::Mechanism mech : core::all_mechanisms()) {
      RunOptions options;
      options.mechanism = mech;
      const algorithms::Run run = run_on_fresh_machine(algo, options);
      EXPECT_GT(run.time_ns, 0.0) << algo.name;
      EXPECT_GT(run.work, 0u) << algo.name;
      EXPECT_EQ(algo.check(scale8_inputs(), options, run), "")
          << algo.name << "/" << core::to_string(mech);
    }
  }
}

TEST(Registry, ZeroBatchKeepsTheAlgorithmsDefault) {
  // BfsOptions and ColoringOptions default to M = 16 and M = 8.
  for (const auto& [name, default_m] :
       {std::pair{"bfs", 16}, std::pair{"coloring", 8}}) {
    const Algorithm& algo = algorithms::find_algorithm(name);
    RunOptions implicit;
    RunOptions explicit_m;
    explicit_m.batch = default_m;
    EXPECT_EQ(run_on_fresh_machine(algo, implicit).time_ns,
              run_on_fresh_machine(algo, explicit_m).time_ns)
        << name;
  }
}

TEST(Registry, ProjectionsAgreeAcrossMechanisms) {
  const Inputs& in = scale8_inputs();
  for (const Algorithm& algo : algorithms::registry()) {
    RunOptions serial;
    serial.mechanism = core::Mechanism::kSerialLock;
    const algorithms::Projection base =
        algo.project(in, run_on_fresh_machine(algo, serial));
    for (const core::Mechanism mech : core::all_mechanisms()) {
      RunOptions options;
      options.mechanism = mech;
      const algorithms::Projection got =
          algo.project(in, run_on_fresh_machine(algo, options));
      EXPECT_EQ(got.exact, base.exact)
          << algo.name << "/" << core::to_string(mech);
      ASSERT_EQ(got.approx.size(), base.approx.size()) << algo.name;
      for (std::size_t i = 0; i < got.approx.size(); ++i) {
        if (std::isinf(base.approx[i])) {
          EXPECT_TRUE(std::isinf(got.approx[i])) << algo.name << i;
        } else {
          EXPECT_NEAR(got.approx[i], base.approx[i], base.tolerance)
              << algo.name << "/" << core::to_string(mech) << " " << i;
        }
      }
    }
  }
}

// Each check must reject a run whose answer was damaged after the fact.
class CorruptedRunTest : public ::testing::TestWithParam<const char*> {};

void corrupt(const std::string& name, const Inputs& in,
             algorithms::Run& run) {
  if (name == "bfs") {
    // Point a visited non-root vertex's parent off the graph.
    auto& parent = run.get<std::vector<graph::Vertex>>("parent");
    for (graph::Vertex v = 0; v < parent.size(); ++v) {
      if (v != in.root && parent[v] != graph::kInvalidVertex) {
        parent[v] = in.g.num_vertices() + 5;
        return;
      }
    }
  } else if (name == "pagerank") {
    run.get<std::vector<double>>("rank")[in.root] *= 1.001;
  } else if (name == "sssp") {
    // Shorten a reachable non-source vertex's distance.
    auto& distance = run.get<std::vector<double>>("distance");
    for (graph::Vertex v = 0; v < distance.size(); ++v) {
      if (v != in.source && !std::isinf(distance[v])) {
        distance[v] -= 1.0;
        return;
      }
    }
  } else if (name == "coloring") {
    // Give a vertex the color of one of its neighbors.
    auto& color = run.get<std::vector<std::uint32_t>>("color");
    const graph::Vertex u = in.g.neighbors(in.root).front();
    color[in.root] = color[u];
  } else if (name == "st-conn") {
    auto& connected = run.get<std::uint64_t>("connected");
    connected = 1 - connected;
  } else if (name == "boruvka") {
    run.get<double>("total_weight") += 1.0;
  }
}

TEST_P(CorruptedRunTest, CheckRejectsIt) {
  const Algorithm& algo = algorithms::find_algorithm(GetParam());
  const RunOptions options;
  algorithms::Run run = run_on_fresh_machine(algo, options);
  ASSERT_EQ(algo.check(scale8_inputs(), options, run), "");
  corrupt(algo.name, scale8_inputs(), run);
  EXPECT_NE(algo.check(scale8_inputs(), options, run), "");
}

INSTANTIATE_TEST_SUITE_P(EveryEntry, CorruptedRunTest,
                         ::testing::Values("bfs", "pagerank", "sssp",
                                           "coloring", "st-conn", "boruvka"),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::erase(name, '-');
                           return name;
                         });

}  // namespace
}  // namespace aam
