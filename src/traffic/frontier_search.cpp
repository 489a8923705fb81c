#include "traffic/frontier_search.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/parallel.hpp"
#include "core/probe_context.hpp"
#include "graph/bfs_scratch.hpp"
#include "obs/run_metrics.hpp"

namespace faultroute {

FrontierMode parse_frontier_mode(const std::string& name) {
  if (name == "batch") return FrontierMode::kBatch;
  if (name == "permsg") return FrontierMode::kPerMessage;
  // analyze:allow-throw-safety(config parse error raised during scenario setup)
  throw std::invalid_argument("frontier mode must be 'batch' or 'permsg', got '" + name +
                              "'");
}

std::string frontier_mode_name(FrontierMode mode) {
  switch (mode) {
    case FrontierMode::kBatch:
      return "batch";
    case FrontierMode::kPerMessage:
      return "permsg";
  }
  return "batch";  // unreachable
}

namespace detail {

namespace {

/// Messages per block: one bit of the memo words per message.
constexpr std::size_t kBlockMessages = 64;

/// Block-shared probe memo: per undirected edge id, an epoch stamp, a 64-bit
/// membership word (bit m set = block message m has probed the edge), and
/// the environment's answer. Replaces 64 per-message memo tables with one
/// set of arrays cleared per block by a single epoch increment; answers can
/// be shared across the word because the percolation environment is fixed —
/// every message probing an edge gets the same bit back.
struct BlockMemo {
  std::vector<std::uint32_t> stamp;
  std::vector<std::uint64_t> probed;  // valid iff stamp[e] == epoch
  std::vector<std::uint8_t> open;     // valid iff stamp[e] == epoch
  std::uint32_t epoch = 0;

  void begin_block(std::uint32_t num_edges) {
    if (stamp.size() < num_edges) {
      stamp.resize(num_edges, 0);  // analyze:allow-hot-alloc(grow-only pooled memo warm-up)
      probed.resize(num_edges, 0);  // analyze:allow-hot-alloc(same grow-only warm-up)
      open.resize(num_edges, 0);  // analyze:allow-hot-alloc(same grow-only warm-up)
    }
    if (epoch == std::numeric_limits<std::uint32_t>::max()) {
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 0;
    }
    ++epoch;
  }
};

/// One message's probe bookkeeping, replaying ProbeContext::probe_with
/// step-for-step on the dense path: total++ first, then the (per-message)
/// memo, then the budget gate, then exactly one environment lookup per
/// distinct (message, edge) pair — so censoring fires at the identical
/// probe and the shared cache sees the identical lookup sequence, keeping
/// cache_hits + cache_misses == total_distinct_probes intact. Locality
/// needs no tracking here: flood only probes from dequeued (hence reached)
/// vertices and bidirectional is an oracle router, so neither can trip the
/// check that ProbeContext would perform.
struct BatchProbe {
  const FlatAdjacency* flat;
  const EdgeSampler* env;
  std::optional<std::uint64_t> budget;
  BlockMemo* memo;
  std::uint64_t bit;  // this message's bit in the block words
  std::uint64_t total = 0;
  std::uint64_t distinct = 0;
  std::uint64_t expansions = 0;

  bool probe(VertexId v, int i) {
    ++total;
    const std::uint32_t e = flat->edge_id(v, i);
    const bool live = memo->stamp[e] == memo->epoch;
    if (live && (memo->probed[e] & bit) != 0) {
      return memo->open[e] != 0;  // this message's own re-probe: memoised
    }
    if (budget && distinct >= *budget) {
      // analyze:allow-throw-safety(probe-budget censoring signal, caught per message by the block executor)
      throw ProbeBudgetExceeded("probe budget exhausted");
    }
    const bool is_open = env->is_open_indexed(e, flat->edge_key(v, i));
    if (live) {
      memo->probed[e] |= bit;
    } else {
      memo->stamp[e] = memo->epoch;
      memo->probed[e] = bit;
    }
    memo->open[e] = is_open ? 1 : 0;
    ++distinct;
    return is_open;
  }
};

/// flood_router.cpp's flood_search, replayed over the CSR snapshot with the
/// worker's pooled BfsScratch as the dense parent marks: identical FIFO
/// queue, identical probe order (including the target-first reordering),
/// identical path reconstruction.
// analyze:allow-hot-alloc(pooled scratch queue retains capacity across the block; the path materializes one result)
std::optional<Path> flood_message(BatchProbe& probe, BfsScratch& s, const FlatAdjacency& flat,
                                  VertexId u, VertexId v, bool target_first) {
  s.begin(flat.num_vertices());
  s.mark(u, u);
  s.queue.push_back(u);
  std::size_t head = 0;
  while (head < s.queue.size()) {
    const VertexId x = s.queue[head++];
    ++probe.expansions;
    const std::uint64_t row = flat.row_begin(x);
    const int deg = flat.degree(x);
    int target_index = -1;
    if (target_first) target_index = edge_index_of(flat, x, v);
    for (int step = (target_index >= 0 ? -1 : 0); step < deg; ++step) {
      const int i = (step == -1) ? target_index : step;
      if (step != -1 && i == target_index && target_index >= 0) continue;  // done already
      const VertexId y = flat.neighbor_at(row + static_cast<std::uint64_t>(i));
      if (s.seen(y)) continue;
      if (!probe.probe(x, i)) continue;
      s.mark(y, x);
      if (y == v) {
        Path path;
        for (VertexId z = v;; z = s.parent[z]) {
          path.push_back(z);
          if (z == u) break;
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      s.queue.push_back(y);
    }
  }
  return std::nullopt;
}

// analyze:allow-hot-alloc(result-path materialization bounded by chain length)
Path chain_to_root(const BfsScratch& s, VertexId from) {
  Path path;
  for (VertexId x = from;; x = s.parent[x]) {
    path.push_back(x);
    if (s.parent[x] == x) break;
  }
  return path;  // from .. root
}

/// bidirectional_router.cpp's bidirectional_search, replayed likewise: the
/// two balls live in the worker's two scratches, the smaller live frontier
/// expands first (ties: u side), and the meet/join/simplify steps match the
/// router verbatim.
// analyze:allow-hot-alloc(pooled scratch queues retain capacity across the block; join materializes one result path)
std::optional<Path> bidirectional_message(BatchProbe& probe, BfsScratch& su, BfsScratch& sv,
                                          const FlatAdjacency& flat, VertexId u, VertexId v) {
  const std::uint64_t n = flat.num_vertices();
  su.begin(n);
  sv.begin(n);
  su.mark(u, u);
  su.queue.push_back(u);
  sv.mark(v, v);
  sv.queue.push_back(v);
  std::size_t head_u = 0;
  std::size_t head_v = 0;
  const auto live_u = [&] { return su.queue.size() - head_u; };
  const auto live_v = [&] { return sv.queue.size() - head_v; };

  const auto join = [&](VertexId meeting, VertexId via_u_side) {
    Path left = chain_to_root(su, via_u_side);
    std::reverse(left.begin(), left.end());  // u .. via_u_side
    const Path right = chain_to_root(sv, meeting);  // meeting .. v
    left.insert(left.end(), right.begin(), right.end());
    return simplify_walk(left);
  };

  while (live_u() > 0 || live_v() > 0) {
    const bool expand_u = live_u() > 0 && (live_v() == 0 || live_u() <= live_v());
    BfsScratch& mine = expand_u ? su : sv;
    BfsScratch& other = expand_u ? sv : su;
    std::size_t& head = expand_u ? head_u : head_v;
    const VertexId x = mine.queue[head++];
    ++probe.expansions;
    const std::uint64_t row = flat.row_begin(x);
    const int deg = flat.degree(x);
    for (int i = 0; i < deg; ++i) {
      const VertexId y = flat.neighbor_at(row + static_cast<std::uint64_t>(i));
      if (mine.seen(y)) continue;
      if (!probe.probe(x, i)) continue;
      if (other.seen(y)) {
        // The two balls touch along edge (x, y).
        if (expand_u) return join(y, x);
        return join(x, y);
      }
      mine.mark(y, x);
      mine.queue.push_back(y);
    }
  }
  return std::nullopt;
}

}  // namespace

// analyze:hot-root(batched frontier block executor: 64-message bitset sweeps)
void route_frontier_batched(const Topology& graph, const EdgeSampler& env,
                            const std::vector<TrafficMessage>& messages,
                            const TrafficConfig& config, const FlatAdjacency& flat,
                            BatchSearchKind kind, bool probe_target_first,
                            std::vector<MessageOutcome>& outcomes, std::vector<Path>& paths) {
  (void)graph;
  obs::CounterRegistry* counters =
      config.metrics != nullptr ? &config.metrics->counters() : nullptr;
  const obs::CounterRegistry::CounterId probe_calls =
      counters != nullptr ? counters->id("traffic.routing.probe_calls") : 0;
  const obs::CounterRegistry::CounterId expansions =
      counters != nullptr ? counters->id("traffic.routing.bfs_expansions") : 0;
  // Batch-only bookkeeping: these two exist only in batch mode and are
  // therefore outside the cross-mode identity contract.
  const obs::CounterRegistry::CounterId batched =
      counters != nullptr ? counters->id("traffic.routing.frontier.batched_messages") : 0;
  const obs::CounterRegistry::CounterId blocks =
      counters != nullptr ? counters->id("traffic.routing.frontier.blocks") : 0;
  obs::PhaseProfiler* profiler =
      config.metrics != nullptr ? &config.metrics->profiler() : nullptr;

  struct WorkerScratch {
    BlockMemo memo;
    BfsScratch search_u;
    BfsScratch search_v;
  };

  // Blocks are the parallel unit (disjoint message ranges); messages within
  // a block run sequentially so they can share the memo words. Results are
  // per-message functions of the fixed environment, so neither the block
  // split nor the thread count is observable.
  const std::size_t num_blocks = (messages.size() + kBlockMessages - 1) / kBlockMessages;
  parallel_index_loop(num_blocks, config.threads, [&] {
    const std::shared_ptr<WorkerScratch> scratch = std::make_shared<WorkerScratch>();
    const std::shared_ptr<obs::PhaseProfiler::Scope> span =
        std::make_shared<obs::PhaseProfiler::Scope>(profiler, "route-worker");
    return [&, scratch, span](std::size_t b) {
      const std::size_t begin = b * kBlockMessages;
      const std::size_t end = std::min(begin + kBlockMessages, messages.size());
      scratch->memo.begin_block(flat.num_edge_ids());
      if (counters != nullptr) {
        counters->add(blocks, 1);
        counters->add(batched, end - begin);
      }
      for (std::size_t i = begin; i < end; ++i) {
        const TrafficMessage& msg = messages[i];
        MessageOutcome& out = outcomes[i];
        out.message = msg;
        if (msg.source == msg.target) {
          out.routed = true;
          paths[i] = Path{msg.source};
          continue;
        }
        BatchProbe probe{&flat, &env, config.probe_budget, &scratch->memo,
                         1ull << (i - begin)};
        std::optional<Path> path;
        try {
          path = kind == BatchSearchKind::kFlood
                     ? flood_message(probe, scratch->search_u, flat, msg.source, msg.target,
                                     probe_target_first)
                     : bidirectional_message(probe, scratch->search_u, scratch->search_v,
                                             flat, msg.source, msg.target);
        } catch (const ProbeBudgetExceeded&) {
          out.censored = true;
        }
        out.distinct_probes = probe.distinct;
        if (counters != nullptr) {
          counters->add(probe_calls, probe.total);
          counters->add(expansions, probe.expansions);
        }
        if (path) {
          out.routed = true;
          paths[i] = simplify_walk(*path);
          out.path_edges = path_length(paths[i]);
        }
      }
    };
  });
}

}  // namespace detail

}  // namespace faultroute
