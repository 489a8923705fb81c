#include "traffic/frontier_search.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/parallel.hpp"
#include "core/probe_context.hpp"
#include "core/routers/bfs_searches.hpp"
#include "graph/bfs.hpp"
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
  EpochStamps stamps;
  std::vector<std::uint64_t> probed;  // valid iff stamps.live(e)
  std::vector<std::uint8_t> open;     // valid iff stamps.live(e)

  void begin_block(std::uint32_t num_edges) {
    stamps.begin(num_edges);
    if (probed.size() < num_edges) {
      probed.resize(num_edges, 0);  // analyze:allow-hot-alloc(grow-only pooled memo warm-up)
      open.resize(num_edges, 0);  // analyze:allow-hot-alloc(same grow-only warm-up)
    }
  }
};

/// One message's probe bookkeeping, replaying ProbeContext::probe_with
/// step-for-step on the dense path: total++ first, then the (per-message)
/// memo, then the budget gate, then exactly one environment lookup per
/// distinct (message, edge) pair — so censoring fires at the identical
/// probe and the shared cache sees the identical lookup sequence. Locality
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
    const bool live = memo->stamps.live(e);
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
      memo->stamps.stamp(e);
      memo->probed[e] = bit;
    }
    memo->open[e] = is_open ? 1 : 0;
    ++distinct;
    return is_open;
  }

  void note_expansion() { ++expansions; }
};

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
    DenseMarks parent_u;
    DenseMarks parent_v;
    std::vector<VertexId> queue_u;
    std::vector<VertexId> queue_v;
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
                     ? flood_search(probe, CsrRows{&flat}, msg.source, msg.target,
                                    probe_target_first, scratch->parent_u, scratch->queue_u)
                     : bidirectional_search(
                           probe, CsrRows{&flat}, msg.source, msg.target,
                           SearchBall<DenseMarks>{&scratch->parent_u, &scratch->queue_u},
                           SearchBall<DenseMarks>{&scratch->parent_v, &scratch->queue_v});
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
