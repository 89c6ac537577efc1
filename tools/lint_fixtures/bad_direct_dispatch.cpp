// Lint fixture: known-bad. A sweep that spells out one algorithm's run_*
// call instead of dispatching through the algorithm registry.
#include <cstdint>

namespace aam::bench {

double sweep_cell(htm::DesMachine& machine, const algorithms::Inputs& in,
                  const algorithms::RunOptions& options) {
  algorithms::BfsOptions o;
  o.root = in.root;
  o.mechanism = options.mechanism;
  return algorithms::run_bfs(machine, in.g, o).total_time_ns;
}

}  // namespace aam::bench
