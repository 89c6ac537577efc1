// Lint fixture: known-good. A sweep that dispatches every algorithm through
// the registry; comments may still name algorithms::run_bfs(...), and the
// distributed PageRank (not a registry entry) keeps its own call.
#include <cstdint>

namespace aam::bench {

double sweep(htm::DesMachine& machine, net::Cluster& cluster,
             const algorithms::Inputs& in,
             const algorithms::RunOptions& options) {
  double total = 0;
  for (const algorithms::Algorithm& algo : algorithms::registry()) {
    total += algo.run(machine, in, options).time_ns;  /* not run_sssp( */
  }
  const graph::Block1D part(in.g.num_vertices(), 4);
  total += algorithms::run_distributed_pagerank(cluster, in.g, part, {})
               .total_time_ns;
  return total;
}

}  // namespace aam::bench
