// bench_paper — the paper's experiments (E1–E11, A1–A3, T1) behind one driver.
//
//   bench_paper <id> [--quick] [--trials=N] [--seed=S] [--csv=DIR]
//
// Runs one experiment and prints its tables to stdout. --quick shrinks
// sizes and trial counts; that output is deterministic and pinned byte for
// byte by tests/golden/experiments/<id>.quick.txt (one ctest case per id).

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>

#include "experiments/experiments.hpp"
#include "sim/options.hpp"

namespace {

using namespace faultroute;

struct Experiment {
  std::string_view id;
  void (*run)(const sim::Options&);
};

constexpr Experiment kExperiments[] = {
    {"hypercube-phase", paper::e1_hypercube_phase},
    {"hypercube-ball", paper::e2_hypercube_ball},
    {"mesh-routing", paper::e3_mesh_routing},
    {"double-tree", paper::e4_e5_double_tree},
    {"gnp-routing", paper::e6_gnp_routing},
    {"giant-component", paper::e7_giant_component},
    {"extension-topologies", paper::e8_extension_topologies},
    {"chemical-distance", paper::e9_chemical_distance},
    {"distortion", paper::e10_distortion},
    {"oracle-hypercube", paper::e11_oracle_hypercube},
    {"ablations", paper::a1_a3_ablations},
    {"traffic", paper::t1_traffic},
};

const Experiment& find_experiment(int argc, char** argv) {
  const std::string_view id = argc > 1 ? argv[1] : "";
  std::string ids;
  for (const Experiment& experiment : kExperiments) {
    if (experiment.id == id) return experiment;
    ids.append(" ").append(experiment.id);
  }
  std::string message = id.empty() ? std::string("missing experiment id")
                                   : std::string("unknown experiment '").append(id) + "'";
  message += " (usage: bench_paper <id> [--quick] [--trials=N] [--seed=S] [--csv=DIR]; ids:";
  throw std::invalid_argument(message + ids + ")");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Experiment& experiment = find_experiment(argc, argv);
    // parse_options skips its argv[0]; here that is the experiment id.
    experiment.run(sim::parse_options(argc - 1, argv + 1));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_paper: %s\n", e.what());
    return 1;
  }
  return 0;
}
