#include "traffic/workload.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "random/rng.hpp"

// analyze:allow-file-throw-safety(workload parse and validation errors raised during generation, before the delivery engine runs)
namespace faultroute {

namespace {

/// %g rendering for diagnostics: std::to_string prints 1e-300 as 0.000000.
std::string format_rate(double rate) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", rate);
  return buffer;
}

/// Message ids are 32-bit throughout the traffic pipeline; generating more
/// messages would silently alias ids (the old behaviour was a truncating
/// cast). Checked before any allocation, so the guard itself is cheap.
void check_message_count(std::uint64_t messages) {
  if (messages > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "generate_workload: message ids are 32-bit; at most 4294967295 messages, got " +
        std::to_string(messages));
  }
}

/// Fisher-Yates shuffle of [0, n) driven by `rng`.
std::vector<VertexId> random_permutation(Rng& rng, std::uint64_t n) {
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  for (std::uint64_t i = n - 1; i > 0; --i) {
    const std::uint64_t j = uniform_below(rng, i + 1);
    std::swap(perm[i], perm[j]);
  }
  return perm;
}

std::vector<TrafficMessage> permutation_messages(Rng& rng, std::uint64_t n,
                                                 std::uint64_t messages) {
  check_message_count(messages);
  std::vector<TrafficMessage> out;
  out.reserve(messages);
  // Each round is one message per source under a fresh permutation; fixed
  // points carry no demand and are skipped.
  while (out.size() < messages) {
    const auto perm = random_permutation(rng, n);
    for (VertexId u = 0; u < n && out.size() < messages; ++u) {
      if (perm[u] == u) continue;
      out.push_back({static_cast<std::uint32_t>(out.size()), u, perm[u], 0});
    }
  }
  return out;
}

}  // namespace

WorkloadKind parse_workload(const std::string& name) {
  if (name == "permutation") return WorkloadKind::kPermutation;
  if (name == "random-pairs") return WorkloadKind::kRandomPairs;
  if (name == "hotspot") return WorkloadKind::kHotspot;
  if (name == "bisection") return WorkloadKind::kBisection;
  if (name == "poisson") return WorkloadKind::kPoisson;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string workload_name(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPermutation: return "permutation";
    case WorkloadKind::kRandomPairs: return "random-pairs";
    case WorkloadKind::kHotspot: return "hotspot";
    case WorkloadKind::kBisection: return "bisection";
    case WorkloadKind::kPoisson: return "poisson";
  }
  throw std::logic_error("unreachable workload kind");
}

std::vector<std::string> workload_names() {
  return {"permutation", "random-pairs", "hotspot", "bisection", "poisson"};
}

std::vector<TrafficMessage> generate_workload(const Topology& graph,
                                              const WorkloadConfig& config) {
  const std::uint64_t n = graph.num_vertices();
  if (n < 2) throw std::invalid_argument("generate_workload: need >= 2 vertices");
  check_message_count(config.messages);
  if (config.messages == 0) return {};
  Rng rng(config.seed);

  if (config.kind == WorkloadKind::kPermutation) {
    return permutation_messages(rng, n, config.messages);
  }

  std::vector<TrafficMessage> out;
  out.reserve(config.messages);
  double poisson_clock = 0.0;
  if (config.kind == WorkloadKind::kPoisson &&
      !(std::isfinite(config.arrival_rate) && config.arrival_rate > 0.0)) {
    throw std::invalid_argument("poisson workload requires a finite arrival_rate > 0, got " +
                                format_rate(config.arrival_rate));
  }
  if (config.kind == WorkloadKind::kHotspot && config.hotspot_target >= n) {
    throw std::invalid_argument("hotspot target out of range");
  }
  for (std::uint64_t i = 0; i < config.messages; ++i) {
    TrafficMessage msg;
    msg.id = static_cast<std::uint32_t>(i);
    switch (config.kind) {
      case WorkloadKind::kRandomPairs:
      case WorkloadKind::kPoisson:
        msg.source = uniform_below(rng, n);
        do {
          msg.target = uniform_below(rng, n);
        } while (msg.target == msg.source);
        break;
      case WorkloadKind::kHotspot:
        msg.target = config.hotspot_target;
        msg.source = uniform_below(rng, n - 1);
        if (msg.source >= msg.target) ++msg.source;  // uniform over V \ {target}
        break;
      case WorkloadKind::kBisection:
        msg.source = uniform_below(rng, n / 2);
        msg.target = n / 2 + uniform_below(rng, n - n / 2);
        break;
      case WorkloadKind::kPermutation:
        throw std::logic_error("unreachable");
    }
    if (config.kind == WorkloadKind::kPoisson) {
      // Exponential inter-arrival times, floored onto the discrete clock.
      poisson_clock += -std::log1p(-uniform_double(rng)) / config.arrival_rate;
      // Converting a double at or past 2^64 to uint64_t is undefined; a rate
      // this small has no representable schedule.
      if (!(poisson_clock < 0x1p64)) {
        throw std::invalid_argument("poisson arrival_rate " + format_rate(config.arrival_rate) +
                                    ": inject time of message " + std::to_string(i) +
                                    " exceeds UINT64_MAX");
      }
      msg.inject_time = static_cast<std::uint64_t>(poisson_clock);
    }
    out.push_back(msg);
  }
  return out;
}

}  // namespace faultroute
