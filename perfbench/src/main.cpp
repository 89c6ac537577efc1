// One workload of the AAM simulator benchmark (see ../README.md).
//
//   perfbench --workload <shm-contended|traversal|dist-pagerank>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's inputs from the seed, then runs rounds of a fixed
// list of operations back to back on one host thread until the time is up.
// One operation is one simulated run plus its check against the
// benchmark's own reference (checks.hpp) and against the first round's
// simulated numbers, which must repeat exactly. The last line of stdout is
// one JSON object: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Tracing records a span around every call into a
// layer and writes them as Chrome trace-event JSON under .bench_out/.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/boruvka.hpp"
#include "algorithms/coloring.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/pagerank_dist.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/st_connectivity.hpp"
#include "analysis/conflict.hpp"
#include "analysis/recommend.hpp"
#include "checks.hpp"
#include "core/auto_executor.hpp"
#include "core/executor.hpp"
#include "fault/fault.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "htm/des_engine.hpp"
#include "mem/sim_heap.hpp"
#include "model/machines.hpp"
#include "net/cluster.hpp"
#include "recovery/manager.hpp"
#include "util/rng.hpp"

namespace {

using namespace aam;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

// The 64-thread BG/Q model, as in the paper's intra-node figures.
constexpr model::HtmKind kKind = model::HtmKind::kBgqShort;
constexpr int kBatch = 16;
constexpr int kEdgeFactor = 8;
// Both graphs come from one fixed generator seed, and --seed drives what
// runs on them: roots, pairs, sources, the machines' and the fault plan's
// random streams, and coloring's tie-breaks. From one Kronecker graph to
// the next, round counts move the simulated times by a tenth to a fifth,
// which would drown a real change in the spread between seeds.
constexpr std::uint64_t kGraphSeed = 1;
// PageRank graph (shm-contended and dist-pagerank): small enough that
// the 64 simulated threads collide often, so aborts and serialization
// dominate.
constexpr int kPageRankScale = 14;
constexpr int kPageRankIterations = 3;
constexpr std::uint64_t kColoringSeeds = 3;
constexpr double kDamping = 0.85;
// Traversal graph: the largest input, so graph construction shows in
// set-up; weights drawn uniformly from [1, 100).
constexpr int kTraversalScale = 15;
constexpr int kBfsRoots = 4;
constexpr int kSsspSources = 4;
constexpr int kHubs = 64;  ///< highest-degree vertices SSSP starts from
constexpr int kReachablePairs = 2;
constexpr int kNodes = 4;
constexpr const char* kFaultPlan = "crash-combined";

const model::MachineConfig& machine_config() {
  return model::machine_by_name("BGQ");
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- tracing

struct Span {
  std::string name;
  std::string cat;  ///< mechanism or mode of a run span, else empty
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
};

/// In-memory span recorder; records nothing when off.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  int open(std::string name, std::string cat) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), std::move(cat), now_us(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[id].end_us = now_us();
    stack_.pop_back();
  }

  void write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                    "\"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d}}",
                    s.start_us, s.end_us - s.start_us, i, s.parent);
      out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"cat\": \"" << s.cat << "\", " << buf;
    }
    out << "\n]}\n";
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  bool on_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call into a layer and, when tracing, records it as a span.
class Timed {
 public:
  Timed(Tracer& tracer, std::string name, std::string cat = {})
      : tracer_(tracer), id_(tracer.open(std::move(name), std::move(cat))) {}
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double stop() {
    const double s = since(t0_);
    tracer_.close(id_);
    return s;
  }

 private:
  Tracer& tracer_;
  int id_;
  Clock::time_point t0_ = Clock::now();
};

// --------------------------------------------------------- calibration

/// A fixed kernel of the benchmark's own, run before every round to gauge
/// the host's speed at that moment: Dijkstra from vertex 0 of a random
/// graph of 2^17 vertices and 2^19 edges held in plain arrays. A binary
/// heap, scans of adjacency lists and scattered updates over 9 MiB make it
/// slow down with the host the way the simulator's event loop does: over
/// 150 s of dist-pagerank rounds its pass time correlated 0.82 with the
/// round time, with slope 1.03 in a log-log fit of one against the other;
/// a random walk over a 16 MiB table reached 0.45 and a chain of
/// multiplications 0.3.
/// It shares no code with the program, so a change to the program leaves
/// its time alone.
class Calibration {
 public:
  Calibration() : offsets_(kVertices + 1, 0) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::vector<std::uint32_t> from(kEdges), to(kEdges);
    for (std::uint32_t e = 0; e < kEdges; ++e) {
      from[e] = static_cast<std::uint32_t>(next() % kVertices);
      to[e] = static_cast<std::uint32_t>(next() % kVertices);
      ++offsets_[from[e] + 1];
      ++offsets_[to[e] + 1];
    }
    for (std::uint32_t v = 0; v < kVertices; ++v) offsets_[v + 1] += offsets_[v];
    targets_.resize(2 * kEdges);
    weights_.resize(2 * kEdges);
    std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (std::uint32_t e = 0; e < kEdges; ++e) {
      const auto w = static_cast<float>(1 + next() % 100);
      targets_[fill[from[e]]] = to[e];
      weights_[fill[from[e]]++] = w;
      targets_[fill[to[e]]] = from[e];
      weights_[fill[to[e]]++] = w;
    }
  }

  /// Seconds one pass of the kernel took.
  double run() {
    const auto t0 = Clock::now();
    using Entry = std::pair<float, std::uint32_t>;
    std::vector<float> dist(kVertices, std::numeric_limits<float>::max());
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue;
    dist[0] = 0;
    queue.push({0.0f, 0});
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d > dist[u]) continue;
      for (auto e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        const float nd = d + weights_[e];
        if (nd < dist[targets_[e]]) {
          dist[targets_[e]] = nd;
          queue.push({nd, targets_[e]});
        }
      }
    }
    sink_ = sink_ + dist[kVertices - 1];
    return since(t0);
  }

 private:
  static constexpr std::uint32_t kVertices = 1u << 17;
  static constexpr std::uint32_t kEdges = 1u << 19;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> targets_;
  std::vector<float> weights_;
  volatile float sink_ = 0;
};

/// The calibration pass's time on the machine the README's figures come
/// from (a shared 4-vCPU Xeon VM) at its faster speed: host times are
/// reported at that speed.
constexpr double kCalibrationRefS = 70e-3;

// ---------------------------------------------------------- operations

/// What one operation measured. Everything but the host times is
/// simulated and must repeat exactly in every round.
struct OpResult {
  double host_s = 0;   ///< inside the run_* call
  double build_s = 0;  ///< SimHeap / DesMachine / Cluster construction
  std::string error;   ///< the failed check, empty when it passed
  double sim_ns = 0;
  std::uint64_t events = 0;
  htm::HtmStats stats;
  net::NetStats net;
  recovery::RecoveryStats rec;
  fault::InjectedStats injected;
  core::AutoTelemetry tele;

  std::vector<double> simulated() const {
    return {sim_ns,
            static_cast<double>(events),
            static_cast<double>(stats.started),
            static_cast<double>(stats.committed),
            static_cast<double>(stats.serialized),
            static_cast<double>(stats.aborts_conflict),
            static_cast<double>(stats.aborts_capacity),
            static_cast<double>(stats.aborts_other),
            static_cast<double>(stats.aborts_explicit),
            static_cast<double>(stats.atomic_cas),
            static_cast<double>(stats.atomic_acc),
            static_cast<double>(net.messages_sent),
            static_cast<double>(net.bytes_sent),
            static_cast<double>(net.items_sent),
            static_cast<double>(net.remote_atomics),
            static_cast<double>(net.dropped),
            static_cast<double>(net.duplicated),
            static_cast<double>(net.retransmitted),
            static_cast<double>(net.acked),
            static_cast<double>(net.dedup_discarded),
            static_cast<double>(rec.checkpoints),
            static_cast<double>(rec.crashes),
            static_cast<double>(rec.replayed_sends),
            rec.lost_work_ns,
            static_cast<double>(rec.snapshot_bytes),
            static_cast<double>(rec.rolled_back_dropped),
            static_cast<double>(rec.rolled_back_duplicated),
            static_cast<double>(injected.other_aborts),
            static_cast<double>(injected.net_dropped),
            static_cast<double>(injected.net_duplicated),
            static_cast<double>(injected.crashes),
            static_cast<double>(tele.batches),
            static_cast<double>(tele.prediction_miss),
            static_cast<double>(tele.descents),
            static_cast<double>(tele.capacity_clamps)};
  }
};

struct Op {
  std::string alg;   ///< algorithms-layer name
  std::string mech;  ///< mechanism, "auto", or the distributed mode
  bool aam = false;  ///< counted in sim_aam_ms
  std::function<OpResult(Tracer&)> run;
};

struct Mech {
  std::string name;
  core::Mechanism mechanism = core::Mechanism::kHtmCoarsened;
  bool is_auto = false;
};

std::vector<Mech> mechanisms() {
  std::vector<Mech> out;
  for (const core::Mechanism m : core::all_mechanisms()) {
    out.push_back({core::to_string(m), m, false});
  }
  out.push_back({"auto", core::Mechanism::kHtmCoarsened, true});
  return out;
}

std::size_t heap_bytes(const graph::Graph& g) {
  return (std::size_t{1} << 24) +
         static_cast<std::size_t>(g.num_vertices()) * 64;
}

/// One shared-memory run: builds a machine, times `run` (the run_* call),
/// then applies `check` to its result.
template <class Run, class Check>
OpResult shm_op(Tracer& tr, const std::string& alg, const Mech& mech,
                const graph::Graph& g, const core::AutoPolicy& policy,
                std::uint64_t seed, Run run, Check check) {
  OpResult out;
  Timed build(tr, "machine.build");
  mem::SimHeap heap(heap_bytes(g));
  const auto& config = machine_config();
  htm::DesMachine machine(config, kKind, config.max_threads(), heap, seed);
  out.build_s = build.stop();

  core::AutoPolicy routed = policy;
  routed.telemetry = {};
  const core::AutoPolicy* auto_policy = mech.is_auto ? &routed : nullptr;
  Timed call(tr, "algorithms." + alg, mech.name);
  const auto result = run(machine, mech.mechanism, auto_policy);
  out.host_s = call.stop();

  out.sim_ns = result.total_time_ns;
  out.stats = result.stats;
  out.events = machine.events_processed();
  if (mech.is_auto) out.tele = routed.telemetry;
  Timed checking(tr, "check." + alg);
  out.error = check(result);
  checking.stop();
  return out;
}

// ----------------------------------------------------------- workloads

struct Workload {
  double graph_s = 0;   ///< graph generation and CSR build
  double policy_s = 0;  ///< analysis::make_auto_policy
  std::vector<Op> ops;
};

graph::KroneckerParams kronecker_params(int scale) {
  graph::KroneckerParams p;
  p.scale = scale;
  p.edge_factor = kEdgeFactor;
  return p;
}

struct PageRankInputs {
  graph::Graph g;
  core::AutoPolicy policy;
  std::vector<double> reference;
};

/// The PageRank graph, shared by shm-contended and dist-pagerank.
std::shared_ptr<PageRankInputs> pagerank_inputs(Tracer& tr, Workload& w,
                                                bool with_policy) {
  auto in = std::make_shared<PageRankInputs>();
  util::Rng rng(kGraphSeed);
  Timed build(tr, "graph.build");
  in->g = graph::kronecker(kronecker_params(kPageRankScale), rng);
  w.graph_s = build.stop();
  if (with_policy) {
    Timed policy(tr, "analysis.policy");
    const auto& config = machine_config();
    in->policy = analysis::make_auto_policy(
        config, kKind,
        analysis::workload_from_graph(in->g, config.max_threads(), kBatch));
    w.policy_s = policy.stop();
  }
  Timed ref(tr, "reference");
  in->reference = push_pagerank(in->g, kPageRankIterations, kDamping);
  ref.stop();
  return in;
}

Workload shm_contended(Tracer& tr, std::uint64_t seed) {
  Workload w;
  const auto in = pagerank_inputs(tr, w, true);
  for (const Mech& m : mechanisms()) {
    w.ops.push_back({"pagerank", m.name, m.name == "htm", [=](Tracer& t) {
      return shm_op(
          t, "pagerank", m, in->g, in->policy, seed,
          [&](htm::DesMachine& machine, core::Mechanism mech,
              const core::AutoPolicy* policy) {
            algorithms::PageRankOptions o;
            o.iterations = kPageRankIterations;
            o.damping = kDamping;
            o.batch = kBatch;
            o.mechanism = mech;
            o.auto_policy = policy;
            return algorithms::run_pagerank(machine, in->g, o);
          },
          [&](const algorithms::PageRankResult& r) {
            return check_ranks(in->reference, r.rank, kSharedRankTol);
          });
    }});
  }
  // The conflict schedule alone moves coloring's makespan by a tenth from
  // one machine seed to the next, so every coloring runs under three.
  for (const Mech& m : mechanisms()) {
    for (std::uint64_t run_seed = seed; run_seed < seed + kColoringSeeds;
         ++run_seed) {
      w.ops.push_back({"coloring", m.name, m.name == "htm", [=](Tracer& t) {
        return shm_op(
            t, "coloring", m, in->g, in->policy, run_seed,
            [&](htm::DesMachine& machine, core::Mechanism mech,
                const core::AutoPolicy* policy) {
              algorithms::ColoringOptions o;
              o.batch = kBatch;
              o.seed = run_seed;
              o.mechanism = mech;
              o.auto_policy = policy;
              return algorithms::run_boman_coloring(machine, in->g, o);
            },
            [&](const algorithms::ColoringResult& r) {
              return check_coloring(in->g, r.color);
            });
      }});
    }
  }
  return w;
}

struct TraversalInputs {
  graph::Graph g;
  core::AutoPolicy policy;
  Components comps;
  std::vector<Vertex> roots;
  std::vector<std::vector<std::uint32_t>> levels;  ///< per root
  std::vector<std::pair<Vertex, Vertex>> pairs;
  std::vector<Vertex> sources;                 ///< of SSSP
  std::vector<std::vector<double>> distance;  ///< from each source
  Forest forest;
};

Workload traversal(Tracer& tr, std::uint64_t seed) {
  Workload w;
  auto in = std::make_shared<TraversalInputs>();
  util::Rng graph_rng(kGraphSeed);
  {
    const auto params = kronecker_params(kTraversalScale);
    Timed generate(tr, "graph.build");
    auto edges = graph::kronecker_edges(params, graph_rng);
    w.graph_s = generate.stop();
    // One weight per undirected edge: Graph::from_weighted_edges keeps an
    // arbitrary weight per direction of a repeated edge, which leaves the
    // minimum spanning forest ill-defined (see CHANGES.md).
    for (auto& [u, v] : edges) {
      if (u > v) std::swap(u, v);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    Timed build(tr, "graph.build");
    const auto weights =
        graph::random_weights(edges.size(), 1.0f, 100.0f, graph_rng);
    in->g = graph::Graph::from_weighted_edges(Vertex{1} << params.scale,
                                              edges, weights, true);
    w.graph_s += build.stop();
  }
  {
    Timed policy(tr, "analysis.policy");
    const auto& config = machine_config();
    in->policy = analysis::make_auto_policy(
        config, kKind,
        analysis::workload_from_graph(in->g, config.max_threads(), kBatch));
    w.policy_s = policy.stop();
  }
  {
    // BFS roots and the reachable pairs are uniform over the largest
    // component (Graph500 style). SSSP sources and the unreachable pair's
    // source are drawn from its highest-degree vertices: from a uniform
    // source, Bellman-Ford's round count and the whole-component search
    // move their makespans by a quarter to a third from seed to seed. The unreachable
    // pair's target lies outside the component.
    Timed ref(tr, "reference");
    util::Rng rng(seed);
    in->comps = components(in->g);
    std::map<std::uint32_t, std::uint32_t> sizes;
    for (const auto label : in->comps.label) ++sizes[label];
    const auto giant =
        std::max_element(sizes.begin(), sizes.end(), [](auto& a, auto& b) {
          return a.second < b.second;
        })->first;
    const Vertex n = in->g.num_vertices();
    auto sample = [&](bool in_giant) {
      for (;;) {
        const auto v = static_cast<Vertex>(rng.next_below(n));
        if ((in->comps.label[v] == giant) == in_giant) return v;
      }
    };
    std::vector<Vertex> hubs;
    for (Vertex v = 0; v < n; ++v) {
      if (in->comps.label[v] == giant) hubs.push_back(v);
    }
    std::partial_sort(hubs.begin(), hubs.begin() + kHubs, hubs.end(),
                      [&](Vertex a, Vertex b) {
                        return in->g.degree(a) != in->g.degree(b)
                                   ? in->g.degree(a) > in->g.degree(b)
                                   : a < b;
                      });
    const auto hub = [&] { return hubs[rng.next_below(kHubs)]; };
    for (int i = 0; i < kBfsRoots; ++i) in->roots.push_back(sample(true));
    for (int i = 0; i < kReachablePairs; ++i) {
      const Vertex t = sample(true);
      in->pairs.emplace_back(sample(true), t);
    }
    const Vertex unreachable = sample(false);
    in->pairs.emplace_back(hub(), unreachable);
    for (int i = 0; i < kSsspSources; ++i) in->sources.push_back(hub());
    for (const Vertex r : in->roots) in->levels.push_back(bfs_levels(in->g, r));
    for (const Vertex s : in->sources) {
      in->distance.push_back(dijkstra(in->g, s));
    }
    in->forest = kruskal(in->g);
    ref.stop();
  }

  for (const Mech& m : mechanisms()) {
    for (std::size_t i = 0; i < in->roots.size(); ++i) {
      w.ops.push_back({"bfs", m.name, m.name == "htm", [=](Tracer& t) {
        const Vertex root = in->roots[i];
        return shm_op(
            t, "bfs", m, in->g, in->policy, seed,
            [&](htm::DesMachine& machine, core::Mechanism mech,
                const core::AutoPolicy* policy) {
              algorithms::BfsOptions o;
              o.root = root;
              o.batch = kBatch;
              o.mechanism = mech;
              o.auto_policy = policy;
              return algorithms::run_bfs(machine, in->g, o);
            },
            [&](const algorithms::BfsResult& r) {
              return check_bfs(in->g, root, in->levels[i], r.parent);
            });
      }});
    }
    for (const auto& pair : in->pairs) {
      const Vertex s = pair.first;
      const Vertex t = pair.second;
      w.ops.push_back({"st-conn", m.name, m.name == "htm", [=](Tracer& tc) {
        return shm_op(
            tc, "st-conn", m, in->g, in->policy, seed,
            [&](htm::DesMachine& machine, core::Mechanism mech,
                const core::AutoPolicy* policy) {
              algorithms::StConnOptions o;
              o.s = s;
              o.t = t;
              o.batch = kBatch;
              o.mechanism = mech;
              o.auto_policy = policy;
              return algorithms::run_st_connectivity(machine, in->g, o);
            },
            [&](const algorithms::StConnResult& r) {
              return check_st_conn(in->comps, s, t, r.connected);
            });
      }});
    }
    for (std::size_t i = 0; i < in->distance.size(); ++i) {
      w.ops.push_back({"sssp", m.name, m.name == "htm", [=](Tracer& t) {
        return shm_op(
            t, "sssp", m, in->g, in->policy, seed,
            [&](htm::DesMachine& machine, core::Mechanism mech,
                const core::AutoPolicy* policy) {
              algorithms::SsspOptions o;
              o.source = in->sources[i];
              o.batch = kBatch;
              o.mechanism = mech;
              o.auto_policy = policy;
              return algorithms::run_sssp(machine, in->g, o);
            },
            [&](const algorithms::SsspResult& r) {
              return check_sssp(in->distance[i], r.distance);
            });
      }});
    }
    w.ops.push_back({"boruvka", m.name, m.name == "htm", [=](Tracer& t) {
      return shm_op(
          t, "boruvka", m, in->g, in->policy, seed,
          [&](htm::DesMachine& machine, core::Mechanism mech,
              const core::AutoPolicy* policy) {
            algorithms::BoruvkaOptions o;
            o.batch = kBatch;
            o.mechanism = mech;
            o.auto_policy = policy;
            return algorithms::run_boruvka(machine, in->g, o);
          },
          [&](const algorithms::BoruvkaResult& r) {
            return check_forest(in->forest, in->comps, r.total_weight,
                                r.edges_in_forest);
          });
    }});
  }
  return w;
}

/// One distributed PageRank run on a 4-node cluster; with `faulted`, under
/// the seeded crash-combined plan with checkpoint/restore recovery.
OpResult dist_op(Tracer& tr, const PageRankInputs& in, const std::string& name,
                 algorithms::DistPrMode mode, bool faulted,
                 std::uint64_t seed) {
  OpResult out;
  const auto& config = machine_config();
  Timed build(tr, "machine.build");
  mem::SimHeap heap(heap_bytes(in.g));
  net::Cluster cluster(config, kKind, kNodes, config.max_threads() / kNodes,
                       heap, seed);
  out.build_s = build.stop();

  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<recovery::RecoveryManager> recovery;
  if (faulted) {
    const fault::FaultPlan plan = fault::parse(kFaultPlan, config.fault);
    injector = std::make_unique<fault::FaultInjector>(
        plan, seed, cluster.machine().num_threads(),
        cluster.threads_per_node());
    injector->attach(cluster);
    recovery = std::make_unique<recovery::RecoveryManager>(
        cluster, recovery::RecoveryOptions{plan.crash_ckpt_ns});
  }
  algorithms::DistPrOptions o;
  o.iterations = kPageRankIterations;
  o.damping = kDamping;
  o.mode = mode;
  o.local_batch = kBatch;
  Timed call(tr, "algorithms.pagerank-dist", name);
  const auto r = algorithms::run_distributed_pagerank(
      cluster, in.g, graph::Block1D(in.g.num_vertices(), kNodes), o);
  out.host_s = call.stop();

  out.sim_ns = r.total_time_ns;
  out.stats = r.stats;
  out.net = r.net;
  out.events = cluster.machine().events_processed();
  if (faulted) {
    out.rec = recovery->stats();
    out.injected = injector->injected();
    // The manager unregisters itself; drop it before the hooks so no
    // checkpoint fires on a hook-less machine.
    recovery.reset();
    cluster.machine().set_fault_hook(nullptr);
    cluster.set_fault_hook(nullptr);
  }
  Timed checking(tr, "check.pagerank-dist");
  out.error = check_ranks(in.reference, r.rank, kDistRankTol);
  // Two independent totals: what the injector fired, and what the
  // surviving timeline counted plus what rollbacks erased.
  if (out.error.empty() && faulted &&
      (out.injected.net_dropped !=
           out.net.dropped + out.rec.rolled_back_dropped ||
       out.injected.net_duplicated !=
           out.net.duplicated + out.rec.rolled_back_duplicated)) {
    out.error = "injected drops/duplicates differ from counted ones";
  }
  checking.stop();
  return out;
}

Workload dist_pagerank(Tracer& tr, std::uint64_t seed) {
  Workload w;
  const auto in = pagerank_inputs(tr, w, false);
  const auto add = [&](const char* name, algorithms::DistPrMode mode,
                       bool aam, bool faulted) {
    w.ops.push_back({"pagerank-dist", name, aam, [=](Tracer& t) {
      return dist_op(t, *in, name, mode, faulted, seed);
    }});
  };
  add("am", algorithms::DistPrMode::kAam, true, false);
  add("pbgl", algorithms::DistPrMode::kPbgl, false, false);
  add("am-crash", algorithms::DistPrMode::kAam, false, true);
  return w;
}

// -------------------------------------------------------------- output

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    s += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
         buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <shm-contended|traversal|"
               "dist-pagerank> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc != 9 || args.size() != 4 || !args.count("--workload") ||
      !args.count("--seed") || !args.count("--seconds") ||
      !args.count("--trace")) {
    return usage();
  }
  const std::string name = args["--workload"];
  std::uint64_t seed = 0;
  double seconds = 0;
  try {
    seed = std::stoull(args["--seed"]);
    seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    return usage();
  }
  const std::string trace_arg = args["--trace"];
  if (seconds <= 0 || (trace_arg != "0" && trace_arg != "1")) return usage();

  // Every operation allocates and frees a SimHeap arena of about 17 MiB.
  // Under glibc's sliding mmap threshold a freed arena can stay resident
  // beside the next one, so one seed's peak RSS read 65 or 81 MiB by how
  // many rounds ran. A fixed threshold below the arena size returns each
  // arena on free and leaves smaller allocations as they were.
  mallopt(M_MMAP_THRESHOLD, 16 << 20);

  Tracer tr(trace_arg == "1");
  Workload w;
  {
    Timed setup(tr, "setup");
    if (name == "shm-contended") {
      w = shm_contended(tr, seed);
    } else if (name == "traversal") {
      w = traversal(tr, seed);
    } else if (name == "dist-pagerank") {
      w = dist_pagerank(tr, seed);
    } else {
      return usage();
    }
    setup.stop();
  }

  // Rounds: every round runs every operation once, so the failed share is
  // the same whatever the run length. Round 0 is the warm-up: it faults in
  // the process's memory and sets peak RSS, and its host times are left
  // out; at least one more round always runs. The shared host's speed
  // swings by up to 1.9x for minutes at a time, longer than a run, so no
  // estimator over one run's rounds removes it. Each host time is therefore
  // divided by the calibration pass that opened its round and reported at
  // the reference speed (kCalibrationRefS); per operation, the median of
  // these over the rounds after round 0 is taken, and the medians are
  // summed over operations.
  const std::size_t num_ops = w.ops.size();
  std::vector<OpResult> round0;
  std::vector<std::vector<double>> host(num_ops);
  std::vector<std::vector<double>> restore_ms(num_ops);
  // Built after round 0, so its graph stays out of peak RSS.
  std::unique_ptr<Calibration> calibration;
  std::vector<double> round_pass_s;  ///< calibration pass, per round
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double cold_build_s = 0;
  int rounds = 0;
  // Peak RSS is read after round 0: later rounds repeat its allocations,
  // yet glibc's arena grew by 12 MiB in round 4 of one traversal run from
  // fragmentation alone, which says nothing about the program's demand.
  rusage round0_usage{};
  const auto t0 = Clock::now();
  for (; rounds < 2 || since(t0) < seconds; ++rounds) {
    round_pass_s.push_back(calibration ? calibration->run() : 0);
    Timed span(tr, "round");
    for (std::size_t i = 0; i < num_ops; ++i) {
      const Op& op = w.ops[i];
      OpResult r;
      {
        Timed op_span(tr, "op " + op.alg + "/" + op.mech, op.mech);
        r = op.run(tr);
        op_span.stop();
      }
      ++attempted;
      if (rounds == 0) {
        cold_build_s += r.build_s;
      } else if (r.error.empty() && r.simulated() != round0[i].simulated()) {
        r.error = "simulated numbers differ from round 0";
      }
      if (!r.error.empty()) {
        ++failed;
        std::fprintf(stderr, "FAILED %s/%s round %d: %s\n", op.alg.c_str(),
                     op.mech.c_str(), rounds, r.error.c_str());
      }
      host[i].push_back(r.host_s);
      restore_ms[i].push_back(r.rec.recovery_wall_ms);
      if (rounds == 0) round0.push_back(std::move(r));
    }
    span.stop();
    if (rounds == 0) {
      getrusage(RUSAGE_SELF, &round0_usage);
      calibration = std::make_unique<Calibration>();
    }
  }

  // Sums over the operations selected by `pick`, from round 0 for the
  // simulated numbers (every round repeats them) and from the per-operation
  // calibrated warm medians for host times.
  const auto sum = [&](auto pick, auto value) {
    double total = 0;
    for (std::size_t i = 0; i < num_ops; ++i) {
      if (pick(w.ops[i])) total += value(i, round0[i]);
    }
    return total;
  };
  const auto all = [](const Op&) { return true; };
  const auto aam = [](const Op& op) { return op.aam; };
  const auto calibrated = [&](const std::vector<double>& per_round) {
    std::vector<double> v;
    for (std::size_t r = 1; r < per_round.size(); ++r) {
      v.push_back(per_round[r] * kCalibrationRefS / round_pass_s[r]);
    }
    return median(v);
  };
  const auto host_cal = [&](std::size_t i, const OpResult&) {
    return calibrated(host[i]);
  };
  const auto count = [&](auto pick, auto field) {
    return sum(pick, [&](std::size_t, const OpResult& r) {
      return static_cast<double>(field(r));
    });
  };

  const double host_s = sum(all, host_cal);
  // The same host time as measured, before calibration, and the speed the
  // calibration saw.
  const double wall_s = sum(all, [&](std::size_t i, const OpResult&) {
    return median({host[i].begin() + 1, host[i].end()});
  });
  const double pass_ms =
      median({round_pass_s.begin() + 1, round_pass_s.end()}) * 1e3;
  const double events = count(all, [](auto& r) { return r.events; });
  const std::vector<Metric> end_to_end = {
      {"setup_s", "s", w.graph_s + w.policy_s + cold_build_s},
      {"host_s", "s", host_s},
      {"sim_aam_ms", "ms",
       sum(aam, [](std::size_t, auto& r) { return r.sim_ns / 1e6; })},
      {"peak_rss_mb", "MiB",
       static_cast<double>(round0_usage.ru_maxrss) / 1024},
  };

  std::printf("workload %s seed %llu: %d rounds of %zu ops, %llu failed\n",
              name.c_str(), static_cast<unsigned long long>(seed), rounds,
              num_ops, static_cast<unsigned long long>(failed));
  std::printf("end-to-end%s: %s\n", tr.on() ? " (traced)" : "",
              metrics_json(end_to_end).c_str());
  std::printf("host time before calibration %.4f s; calibration pass %.4f ms "
              "(reference %.4f ms)\n",
              wall_s, pass_ms, kCalibrationRefS * 1e3);
  const auto bfs_sim_ms = [&](const char* mech) {
    return sum([&](const Op& op) { return op.alg == "bfs" && op.mech == mech; },
               [](std::size_t, auto& r) { return r.sim_ns / 1e6; });
  };
  if (name == "traversal") {
    std::printf("bfs simulated ms: htm %.6f, atomics %.6f, htm/atomics %.4f\n",
                bfs_sim_ms("htm"), bfs_sim_ms("atomics"),
                ratio(bfs_sim_ms("htm"), bfs_sim_ms("atomics")));
  }

  std::vector<Metric> metrics = end_to_end;
  if (tr.on()) {
    metrics = {
        {"graph.build_s", "s", w.graph_s},
        {"analysis.policy_s", "s", w.policy_s},
        {"htm.machine_build_s", "s", cold_build_s},
        {"host.wall_s", "s", wall_s},
        {"host.calibration_ms", "ms", pass_ms},
    };
    for (const char* alg : {"bfs", "st-conn", "sssp", "boruvka", "pagerank",
                            "coloring", "pagerank-dist"}) {
      metrics.push_back(
          {std::string("algorithms.") + alg + ".host_s", "s",
           sum([&](const Op& op) { return op.alg == alg; }, host_cal)});
    }
    for (const char* mech :
         {"htm", "stm", "atomics", "fine-locks", "serial-lock", "auto"}) {
      metrics.push_back(
          {std::string("core.") + mech + ".host_s", "s",
           sum([&](const Op& op) { return op.mech == mech; }, host_cal)});
    }
    const auto is_auto = [](const Op& op) { return op.mech == "auto"; };
    const auto started = count(aam, [](auto& r) { return r.stats.started; });
    const auto committed =
        count(aam, [](auto& r) { return r.stats.committed; });
    const auto messages =
        count(all, [](auto& r) { return r.net.messages_sent; });
    const auto items = count(all, [](auto& r) { return r.net.items_sent; });
    metrics.insert(
        metrics.end(),
        {{"core.auto.sim_ms", "ms",
          sum(is_auto, [](std::size_t, auto& r) { return r.sim_ns / 1e6; })},
         {"core.auto.prediction_miss", "count",
          count(is_auto, [](auto& r) { return r.tele.prediction_miss; })},
         {"core.auto.descents", "count",
          count(is_auto, [](auto& r) { return r.tele.descents; })},
         {"core.auto.capacity_clamps", "count",
          count(is_auto, [](auto& r) { return r.tele.capacity_clamps; })},
         {"htm.events", "count", events},
         {"htm.host_ns_per_event", "ns", ratio(host_s * 1e9, events)},
         {"htm.started", "count", started},
         {"htm.committed", "count", committed},
         {"htm.serialized", "count",
          count(aam, [](auto& r) { return r.stats.serialized; })},
         {"htm.aborts_conflict", "count",
          count(aam, [](auto& r) { return r.stats.aborts_conflict; })},
         {"htm.aborts_capacity", "count",
          count(aam, [](auto& r) { return r.stats.aborts_capacity; })},
         {"htm.aborts_other", "count",
          count(aam, [](auto& r) { return r.stats.aborts_other; })},
         {"htm.commit_ratio", "ratio", ratio(committed, started)},
         {"atomics.cas", "count",
          count(all, [](auto& r) { return r.stats.atomic_cas; })},
         {"atomics.acc", "count",
          count(all, [](auto& r) { return r.stats.atomic_acc; })},
         {"net.messages", "count", messages},
         {"net.bytes", "B", count(all, [](auto& r) { return r.net.bytes_sent; })},
         {"net.items_per_message", "ratio", ratio(items, messages)},
         {"net.retransmitted", "count",
          count(all, [](auto& r) { return r.net.retransmitted; })},
         {"net.dedup_discarded", "count",
          count(all, [](auto& r) { return r.net.dedup_discarded; })},
         {"fault.dropped", "count",
          count(all, [](auto& r) { return r.injected.net_dropped; })},
         {"fault.duplicated", "count",
          count(all, [](auto& r) { return r.injected.net_duplicated; })},
         {"fault.other_aborts", "count",
          count(all, [](auto& r) { return r.injected.other_aborts; })},
         {"fault.crashes", "count",
          count(all, [](auto& r) { return r.injected.crashes; })},
         {"recovery.checkpoints", "count",
          count(all, [](auto& r) { return r.rec.checkpoints; })},
         {"recovery.snapshot_bytes", "B",
          count(all, [](auto& r) { return r.rec.snapshot_bytes; })},
         {"recovery.replayed_sends", "count",
          count(all, [](auto& r) { return r.rec.replayed_sends; })},
         {"recovery.lost_work_ns", "ns",
          sum(all, [](std::size_t, auto& r) { return r.rec.lost_work_ns; })},
         {"recovery.restore_ms", "ms",
          sum(all, [&](std::size_t i, const OpResult&) {
            return calibrated(restore_ms[i]);
          })}});
    std::filesystem::create_directories(".bench_out");
    const std::string path = ".bench_out/trace-" + name + "-seed" +
                             std::to_string(seed) + ".json";
    tr.write_chrome(path);
    std::printf("trace written to %s\n", path.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics).c_str());
  return 0;
}
