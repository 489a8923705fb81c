// Registry spec parsing must reject malformed, unknown, and out-of-range
// input with std::invalid_argument — never construct garbage silently. This
// is the contract the scenario runner's fail-fast phase relies on.

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/hypercube.hpp"
#include "sim/registry.hpp"

namespace faultroute::sim {
namespace {

// ------------------------------------------------------------- topologies

TEST(RegistryTopology, EveryAdvertisedExampleConstructs) {
  for (const auto& spec : topology_spec_examples()) {
    const auto graph = make_topology(spec);
    ASSERT_NE(graph, nullptr) << spec;
    EXPECT_GE(graph->num_vertices(), 2u) << spec;
    EXPECT_FALSE(graph->name().empty()) << spec;
  }
}

TEST(RegistryTopology, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                    // empty
      "hypercube",           // missing argument
      "hypercube:",          // empty argument
      "hypercube:abc",       // not a number
      "hypercube:12junk",    // trailing garbage after the number
      "hypercube:4:4",       // too many arguments
      "mesh:2",              // too few arguments
      "torus",               // too few arguments
      "cycle_matching:8:1:9" // too many arguments
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)make_topology(spec), std::invalid_argument) << "'" << spec << "'";
  }
}

TEST(RegistryTopology, RejectsUnknownKind) {
  try {
    (void)make_topology("klein_bottle:4");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error must name the offender and list valid examples.
    EXPECT_NE(std::string(e.what()).find("klein_bottle"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("hypercube"), std::string::npos);
  }
}

TEST(RegistryTopology, RejectsOutOfRangeParameters) {
  const char* bad[] = {
      "hypercube:0",   "hypercube:-3",  "hypercube:64",          // dimension bounds
      "mesh:0:8",      "mesh:9:4",      "mesh:2:1",              // dim/side bounds
      "torus:2:2",                                               // torus needs side >= 3
      "de_bruijn:1",   "de_bruijn:40",                           // order bounds
      "butterfly:1",   "ccc:2",         "shuffle_exchange:1",    // order bounds
      "double_tree:0", "complete:1",    "cycle_matching:7",      // n bounds / parity
      "complete:-5",   "cycle_matching:-6",  // negative must not wrap to huge unsigned
      "cycle_matching:9223372036854775806",  // absurd size: reject, don't allocate
      "hypercube:3000000000",          // does not fit int: must throw, not truncate
      "hypercube:99999999999999999999" // does not fit int64 either
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)make_topology(spec), std::invalid_argument) << "'" << spec << "'";
  }
}

// ---------------------------------------------------------------- routers

TEST(RegistryRouter, EveryAdvertisedNameConstructsOnItsTopology) {
  const auto cube = make_topology("hypercube:6");
  const auto tree = make_topology("double_tree:4");
  for (const auto& name : router_names()) {
    const Topology& host =
        name.rfind("double-tree", 0) == 0 ? *tree : *cube;
    EXPECT_NE(make_router(name, host), nullptr) << name;
  }
}

TEST(RegistryRouter, NameIsTheRegistryName) {
  // `route` prints router->name(); it must be a label --router accepts.
  const auto cube = make_topology("hypercube:6");
  const auto tree = make_topology("double_tree:4");
  for (const auto& name : router_names()) {
    const Topology& host =
        name.rfind("double-tree", 0) == 0 ? *tree : *cube;
    EXPECT_EQ(make_router(name, host)->name(), name);
  }
}

TEST(RegistryRouter, RejectsUnknownNameListingKnownOnes) {
  const Hypercube cube(4);
  try {
    (void)make_router("teleport", cube);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("teleport"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("landmark"), std::string::npos);
  }
}

TEST(RegistryRouter, TopologyBoundRouterRejectsWrongTopology) {
  const Hypercube cube(4);
  EXPECT_THROW((void)make_router("double-tree-local", cube), std::invalid_argument);
  EXPECT_THROW((void)make_router("double-tree-oracle", cube), std::invalid_argument);
}

// -------------------------------------------------------------- workloads

TEST(RegistryWorkload, EveryAdvertisedExampleParses) {
  for (const auto& spec : workload_spec_examples()) {
    EXPECT_NO_THROW((void)make_workload(spec)) << spec;
  }
}

TEST(RegistryWorkload, ParsesParameters) {
  EXPECT_EQ(make_workload("permutation").kind, WorkloadKind::kPermutation);
  EXPECT_EQ(make_workload("random-pairs").kind, WorkloadKind::kRandomPairs);
  EXPECT_EQ(make_workload("bisection").kind, WorkloadKind::kBisection);

  const auto hotspot = make_workload("hotspot:37");
  EXPECT_EQ(hotspot.kind, WorkloadKind::kHotspot);
  EXPECT_EQ(hotspot.hotspot_target, 37u);
  EXPECT_EQ(make_workload("hotspot").hotspot_target, 0u);  // default target

  const auto poisson = make_workload("poisson:2.5");
  EXPECT_EQ(poisson.kind, WorkloadKind::kPoisson);
  EXPECT_DOUBLE_EQ(poisson.arrival_rate, 2.5);
}

TEST(RegistryWorkload, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",              // empty
      "nope",          // unknown workload
      "poisson",       // rate is mandatory
      "poisson:0",     // rate must be > 0
      "poisson:-1",    // rate must be > 0
      "poisson:abc",   // not a number
      "poisson:inf",   // rate must be finite
      "poisson:nan",   // rate must be a number
      "poisson:1:2",   // too many arguments
      "hotspot:xyz",   // target not a number
      "hotspot:-1",    // target must be >= 0
      "permutation:5", // takes no arguments
      "bisection:2",   // takes no arguments
  };
  for (const char* spec : bad) {
    EXPECT_THROW((void)make_workload(spec), std::invalid_argument) << "'" << spec << "'";
  }
}

}  // namespace
}  // namespace faultroute::sim
