#include "sim/registry.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/strict_parse.hpp"

#include "core/routers/bidirectional_router.hpp"
#include "core/routers/double_tree_routers.hpp"
#include "core/routers/flood_router.hpp"
#include "core/routers/gnp_routers.hpp"
#include "core/routers/greedy_router.hpp"
#include "core/routers/hybrid_router.hpp"
#include "core/routers/landmark_router.hpp"
#include "graph/butterfly.hpp"
#include "graph/complete.hpp"
#include "graph/cube_connected_cycles.hpp"
#include "graph/cycle_matching.hpp"
#include "graph/de_bruijn.hpp"
#include "graph/double_tree.hpp"
#include "graph/hypercube.hpp"
#include "graph/mesh.hpp"
#include "graph/shuffle_exchange.hpp"

// analyze:allow-file-throw-safety(factory parse and validation errors raised while resolving scenario specs; any late throw is funneled through parallel first_error)
namespace faultroute::sim {

namespace {

std::vector<std::string> split_spec(const std::string& spec) {
  std::vector<std::string> parts;
  std::istringstream stream(spec);
  std::string token;
  while (std::getline(stream, token, ':')) parts.push_back(token);
  return parts;
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Strict integer parse: the whole token must be a number (no trailing
/// garbage, no silent truncation on overflow).
std::int64_t parse_int(const std::string& token, const std::string& spec) {
  const auto value = strict_i64(token);
  if (!value) {
    throw std::invalid_argument("bad number '" + token + "' in spec '" + spec + "'");
  }
  return *value;
}

/// parse_int for parameters that are semantically non-negative (sizes,
/// seeds): rejects negatives before any unsigned cast can wrap them.
std::uint64_t parse_uint(const std::string& token, const std::string& spec) {
  const std::int64_t value = parse_int(token, spec);
  if (value < 0) {
    throw std::invalid_argument("negative number '" + token + "' in spec '" + spec + "'");
  }
  return static_cast<std::uint64_t>(value);
}

/// parse_int narrowed to int; the topology constructors do the semantic
/// range checks, this only rules out values that would not survive the cast.
int parse_small_int(const std::string& token, const std::string& spec) {
  const std::int64_t value = parse_int(token, spec);
  if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("number '" + token + "' out of range in spec '" + spec + "'");
  }
  return static_cast<int>(value);
}

double parse_double(const std::string& token, const std::string& spec) {
  const auto value = strict_f64(token);
  if (!value) {
    throw std::invalid_argument("bad number '" + token + "' in spec '" + spec + "'");
  }
  return *value;
}

void expect_arity(const std::vector<std::string>& parts, std::size_t lo, std::size_t hi,
                  const std::string& spec) {
  if (parts.size() < lo || parts.size() > hi) {
    throw std::invalid_argument("wrong number of arguments in spec '" + spec + "'");
  }
}

}  // namespace

std::unique_ptr<Topology> make_topology(const std::string& spec) {
  const auto parts = split_spec(spec);
  if (parts.empty()) throw std::invalid_argument("empty topology spec");
  const std::string& kind = parts[0];
  if (kind == "hypercube") {
    expect_arity(parts, 2, 2, spec);
    return std::make_unique<Hypercube>(parse_small_int(parts[1], spec));
  }
  if (kind == "mesh" || kind == "torus") {
    expect_arity(parts, 3, 3, spec);
    return std::make_unique<Mesh>(parse_small_int(parts[1], spec),
                                  parse_int(parts[2], spec), kind == "torus");
  }
  if (kind == "double_tree") {
    expect_arity(parts, 2, 2, spec);
    return std::make_unique<DoubleBinaryTree>(parse_small_int(parts[1], spec));
  }
  if (kind == "complete") {
    expect_arity(parts, 2, 2, spec);
    return std::make_unique<CompleteGraph>(parse_uint(parts[1], spec));
  }
  if (kind == "de_bruijn") {
    expect_arity(parts, 2, 2, spec);
    return std::make_unique<DeBruijn>(parse_small_int(parts[1], spec));
  }
  if (kind == "shuffle_exchange") {
    expect_arity(parts, 2, 2, spec);
    return std::make_unique<ShuffleExchange>(parse_small_int(parts[1], spec));
  }
  if (kind == "butterfly") {
    expect_arity(parts, 2, 2, spec);
    return std::make_unique<Butterfly>(parse_small_int(parts[1], spec));
  }
  if (kind == "ccc") {
    expect_arity(parts, 2, 2, spec);
    return std::make_unique<CubeConnectedCycles>(
        parse_small_int(parts[1], spec));
  }
  if (kind == "cycle_matching") {
    expect_arity(parts, 2, 3, spec);
    const std::uint64_t n = parse_uint(parts[1], spec);
    const std::uint64_t seed = parts.size() == 3 ? parse_uint(parts[2], spec) : 1;
    return std::make_unique<CycleWithMatching>(n, seed);
  }
  throw std::invalid_argument("unknown topology kind '" + kind + "' in spec '" + spec +
                              "' (examples: " + join(topology_spec_examples()) + ")");
}

std::unique_ptr<Router> make_router(const std::string& name, const Topology& topology) {
  if (name == "flood") return std::make_unique<FloodRouter>();
  if (name == "flood-target-first") return std::make_unique<FloodRouter>(true);
  if (name == "landmark") return std::make_unique<LandmarkRouter>();
  if (name == "greedy") return std::make_unique<GreedyDescentRouter>();
  if (name == "best-first") return std::make_unique<BestFirstRouter>();
  if (name == "hybrid") return std::make_unique<HybridGreedyRouter>();
  if (name == "bidirectional") return std::make_unique<BidirectionalBfsRouter>();
  if (name == "gnp-local") return std::make_unique<GnpLocalRouter>();
  if (name == "gnp-oracle") return std::make_unique<GnpOracleRouter>();
  if (name == "double-tree-local" || name == "double-tree-oracle") {
    const auto* tree = dynamic_cast<const DoubleBinaryTree*>(&topology);
    if (tree == nullptr) {
      throw std::invalid_argument("router '" + name + "' requires a double_tree topology");
    }
    if (name == "double-tree-local") return std::make_unique<DoubleTreeLocalRouter>(*tree);
    return std::make_unique<DoubleTreePairedOracleRouter>(*tree);
  }
  throw std::invalid_argument("unknown router '" + name + "' (known: " + join(router_names()) +
                              ")");
}

WorkloadConfig make_workload(const std::string& spec) {
  const auto parts = split_spec(spec);
  if (parts.empty() || parts[0].empty()) throw std::invalid_argument("empty workload spec");
  const std::string& kind = parts[0];
  WorkloadConfig config;
  if (kind == "permutation" || kind == "random-pairs" || kind == "bisection") {
    expect_arity(parts, 1, 1, spec);
    config.kind = parse_workload(kind);
    return config;
  }
  if (kind == "hotspot") {
    expect_arity(parts, 1, 2, spec);
    config.kind = WorkloadKind::kHotspot;
    if (parts.size() == 2) {
      const std::int64_t target = parse_int(parts[1], spec);
      if (target < 0) {
        throw std::invalid_argument("hotspot target must be >= 0 in spec '" + spec + "'");
      }
      config.hotspot_target = static_cast<VertexId>(target);
    }
    return config;
  }
  if (kind == "poisson") {
    expect_arity(parts, 2, 2, spec);
    config.kind = WorkloadKind::kPoisson;
    config.arrival_rate = parse_double(parts[1], spec);
    if (!(std::isfinite(config.arrival_rate) && config.arrival_rate > 0.0)) {
      throw std::invalid_argument("poisson rate must be finite and > 0 in spec '" + spec +
                                  "'");
    }
    return config;
  }
  throw std::invalid_argument("unknown workload '" + kind + "' in spec '" + spec +
                              "' (examples: " + join(workload_spec_examples()) + ")");
}

std::vector<std::string> topology_spec_examples() {
  return {"hypercube:12",        "mesh:2:64",      "torus:3:16",   "double_tree:10",
          "complete:500",        "de_bruijn:12",   "shuffle_exchange:12",
          "butterfly:8",         "ccc:8",          "cycle_matching:4096:7"};
}

std::vector<std::string> router_names() {
  return {"flood",        "flood-target-first", "landmark",          "greedy",
          "best-first",   "hybrid",             "bidirectional",     "gnp-local",
          "gnp-oracle",   "double-tree-local",  "double-tree-oracle"};
}

std::vector<std::string> workload_spec_examples() {
  return {"permutation", "random-pairs", "hotspot:0", "bisection", "poisson:2.5"};
}

}  // namespace faultroute::sim
