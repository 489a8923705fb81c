#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/path.hpp"
#include "core/probe_context.hpp"
#include "traffic/traffic_engine.hpp"

namespace faultroute::testing {

/// The shared probe cache is transparent: every message of a traffic run must
/// match the single-pair Definition-2 referee, a fresh hash-backed
/// ProbeContext (no arena, implicit adjacency) over the raw sampler (no
/// cache) that routes the message's pair alone. Checks the censored and
/// routed flags, the distinct-probe count and the simplified path length;
/// with `paths`, also hands back each message's simplified reference path
/// (empty when it did not route) for the caller to compare.
inline void expect_matches_fresh_probe_contexts(const Topology& graph,
                                                const EdgeSampler& sampler,
                                                const RouterFactory& make_router,
                                                const std::vector<TrafficMessage>& messages,
                                                const TrafficConfig& config,
                                                const TrafficResult& result,
                                                const std::string& label,
                                                std::vector<Path>* paths = nullptr) {
  ASSERT_EQ(result.outcomes.size(), messages.size()) << label;
  if (paths != nullptr) paths->assign(messages.size(), Path{});
  const auto router = make_router();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const TrafficMessage& msg = messages[i];
    ProbeContext ctx(graph, sampler, msg.source, router->required_mode(),
                     config.probe_budget);
    std::optional<Path> path;
    bool censored = false;
    try {
      path = router->route(ctx, msg.source, msg.target);
    } catch (const ProbeBudgetExceeded&) {
      censored = true;
    }
    const MessageOutcome& out = result.outcomes[i];
    ASSERT_EQ(out.censored, censored) << label << " msg " << i;
    ASSERT_EQ(out.routed, path.has_value()) << label << " msg " << i;
    ASSERT_EQ(out.distinct_probes, ctx.distinct_probes()) << label << " msg " << i;
    if (path) {
      Path simple = simplify_walk(*path);
      ASSERT_EQ(out.path_edges, path_length(simple)) << label << " msg " << i;
      if (paths != nullptr) (*paths)[i] = std::move(simple);
    }
  }
}

}  // namespace faultroute::testing
