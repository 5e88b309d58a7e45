#include "src/solvers/hda/hda_astar.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/graph/dag_algorithms.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/expander.hpp"
#include "src/solvers/hda/shard.hpp"
#include "src/solvers/hda/termination.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

static_assert(kHdaAstarMaxNodes == StateBoundEvaluator::kVecMaskMaxNodes,
              "the search cap is the runtime-width bound cap");

namespace {

using hda::kRouteBatchSize;
using hda::Mailbox;
using hda::SafraRing;
using hda::Shard;
using hda::StateMsg;
using hda::WorkerLedger;

/// Shared search context: everything the workers coordinate through.
template <typename Packed>
struct SearchContext {
  using Key = typename Packed::Key;

  SearchContext(std::size_t node_count, std::size_t workers,
                std::size_t bucket_count, std::size_t table_bytes_each,
                const std::vector<std::string>& spill_partitions,
                std::size_t disk_bytes_each, std::int64_t no_incumbent)
      : ring(workers), incumbent(no_incumbent) {
    shards.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      shards.push_back(std::make_unique<Shard<Packed>>(
          node_count, bucket_count, table_bytes_each,
          spill_partitions.empty() ? std::string() : spill_partitions[i],
          disk_bytes_each));
    }
  }

  Shard<Packed>& shard(std::size_t i) { return *shards[i]; }

  std::vector<std::unique_ptr<Shard<Packed>>> shards;  // mailboxes pin them
  SafraRing ring;

  /// Scaled g of the best complete state seen; pruning anything priced at or
  /// above it is what turns quiescence into an optimality certificate. A
  /// stale (higher) read only delays a prune, so relaxed loads suffice.
  std::atomic<std::int64_t> incumbent;
  std::mutex goal_mutex;
  Key goal_key{};
  bool has_goal = false;

  /// Exact global expansion count; workers reserve one ticket per expansion,
  /// so the state budget lands on the same count at any thread count.
  std::atomic<std::size_t> expanded{0};

  /// Introspection aggregates. Workers accumulate thread-locally and fold
  /// in at their 64-expansion checkpoints and on exit (relaxed adds off the
  /// hot path), so after the join they are exact; mid-search reads by the
  /// sampling worker are the documented approximation.
  std::atomic<std::size_t> dup_skipped{0};
  std::atomic<std::size_t> dead_prunes{0};
  std::atomic<std::size_t> attr_counting{0};
  std::atomic<std::size_t> attr_pdb{0};
  std::atomic<std::size_t> closure_walks{0};
  std::atomic<std::size_t> closure_memo_hits{0};

  std::atomic<bool> abort{false};
  std::atomic<int> abort_why{-1};
  std::mutex error_mutex;
  std::exception_ptr error;

  void abort_with(ExactTermination why) {
    int expected = -1;
    abort_why.compare_exchange_strong(expected, static_cast<int>(why),
                                      std::memory_order_relaxed);
    abort.store(true, std::memory_order_release);
  }
};

/// `sampler` (may be null) drives the progress/attribution probes; worker 0
/// is the designated snapshot writer — its own shard's open list and spill
/// counters stand in for the whole search (the only shard it may touch
/// without racing), while expansion count and incumbent are global.
/// `no_incumbent` is the context's sentinel (ceiling + 1): any incumbent
/// below it is a real completion (or the verified seed) worth reporting.
template <typename Packed, typename Masks>
void hda_worker(const Engine& engine, SearchContext<Packed>& ctx,
                const PatternDatabase* pdb, std::size_t wid,
                std::size_t max_states, const StopPredicate& should_stop,
                obs::SearchProgressSampler* sampler,
                std::int64_t no_incumbent) {
  const std::size_t workers = ctx.shards.size();
  Shard<Packed>& self = ctx.shard(wid);
  using Table = typename Shard<Packed>::Table;

  // Per-worker span: each worker is its own thread, so its events land on
  // their own trace track — per-shard mailbox/eviction activity reads
  // directly off the timeline.
  const obs::TraceSpan worker_span("hda.worker", "shard", wid);

  // This worker's introspection tallies, folded into the context at every
  // poll and on exit.
  ExactSearchStats local;
  // The PDB is read-only and shared by all workers.
  Expander<Packed, Masks> expander(engine, pdb, local, sampler != nullptr);
  // The shared PDB tables and this worker's bucket arrays are budgeted
  // against this shard's table cap; the queue share refreshes per poll.
  const std::size_t pdb_share =
      pdb == nullptr ? 0 : pdb->table_bytes() / workers;
  self.table.set_overhead_bytes(pdb_share + self.queue.bytes());
  WorkerLedger ledger;
  std::vector<std::vector<StateMsg<Packed>>> out(workers);
  std::vector<StateMsg<Packed>> inbox;
  std::size_t idle_spins = 0;
  auto flush_introspection = [&] {
    auto fold = [](std::atomic<std::size_t>& into, std::size_t& from) {
      if (from != 0) into.fetch_add(from, std::memory_order_relaxed);
      from = 0;
    };
    fold(ctx.dup_skipped, local.dup_skipped);
    fold(ctx.dead_prunes, local.dead_prunes);
    fold(ctx.attr_counting, local.attr_counting);
    fold(ctx.attr_pdb, local.attr_pdb);
    fold(ctx.closure_walks, local.closure_walks);
    fold(ctx.closure_memo_hits, local.closure_memo_hits);
  };
  // Worker 0 is the single snapshot writer: global expansion count and
  // incumbent, own-shard open list and spill counters (the only shard it
  // may read without racing — the documented approximation).
  std::size_t local_expanded = 0;
  SearchCheckpoint checkpoint("hda.checkpoint", local_expanded, should_stop,
                              wid == 0 ? sampler : nullptr);

  // Relax one priced state into this shard's table/queue. Messages losing to
  // an equal-or-better path, or priced at or above the incumbent, die here.
  auto accept = [&](const StateMsg<Packed>& m) {
    if (m.f >= ctx.incumbent.load(std::memory_order_relaxed)) return;
    switch (self.table.relax(m.key, Packed::hash_key(m.key), m.g, m.prior,
                             m.via)) {
      case Table::Relax::OutOfMemory:
        ctx.abort_with(ExactTermination::MemoryBudget);
        return;
      case Table::Relax::Stale:
        return;
      case Table::Relax::Inserted:
      case Table::Relax::Improved:
        break;
    }
    self.queue.push(m.f, m.key, m.g);
  };

  // Route a generated state to its owner: same-shard states relax in place,
  // the rest ride per-target batches. Credit counts at enqueue so an
  // in-flight message is always covered by its sender (termination.hpp).
  // Batching amortizes the mailbox lock under load; with the local queue
  // drained this expansion is the last local work, so ship immediately —
  // on serial instances (chains) the whole search is such hand-offs and
  // latency, not lock traffic, is the cost that matters.
  auto route = [&](StateMsg<Packed> m) {
    const std::size_t target = hda::owner_of<Packed>(m.key, workers);
    if (target == wid) {
      accept(m);
      return;
    }
    out[target].push_back(std::move(m));
    ++ledger.credit;
    if (out[target].size() >= kRouteBatchSize || self.queue.empty()) {
      ctx.shard(target).mailbox.deliver(out[target]);
      out[target].clear();
    }
  };

  auto flush_all = [&] {
    for (std::size_t t = 0; t < workers; ++t) {
      if (!out[t].empty()) {
        ctx.shard(t).mailbox.deliver(out[t]);
        out[t].clear();
      }
    }
  };

  while (true) {
    if (ctx.abort.load(std::memory_order_acquire)) break;
    if (ctx.ring.certified()) break;

    // Incoming states first: they may undercut what the local queue holds.
    if (self.mailbox.drain(inbox) > 0) {
      ledger.credit -= static_cast<std::int64_t>(inbox.size());
      ledger.black = true;
      idle_spins = 0;
      obs::trace_instant("hda.mailbox_drain", "messages", inbox.size());
      for (const StateMsg<Packed>& m : inbox) accept(m);
    }

    if (self.queue.empty()) {
      // Idle: push any straggler batches out (unflushed credit would keep
      // the ring from ever certifying), then offer the token. A worker that
      // stays starved backs off to a short sleep — on an oversubscribed
      // machine, yield-spinning idlers would otherwise steal most of the
      // busy workers' cycles.
      flush_all();
      if (!self.mailbox.empty()) continue;
      if (ctx.ring.try_pass(wid, ledger)) break;
      if (++idle_spins > 64) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        std::this_thread::yield();
      }
      continue;
    }
    idle_spins = 0;

    const auto item = self.queue.pop();
    const std::int64_t f = item.priority;
    // Expansion gate: each (key, g) expands at most once, and only at the
    // best known g.
    if (self.table.begin_expansion(item.key, item.g) == Table::Pop::Skip) {
      ++local.dup_skipped;
      continue;
    }
    if (f >= ctx.incumbent.load(std::memory_order_relaxed)) continue;
    if (expander.enter(item.key)) {
      const std::lock_guard<std::mutex> lock(ctx.goal_mutex);
      if (!ctx.has_goal ||
          item.g < ctx.incumbent.load(std::memory_order_relaxed)) {
        ctx.has_goal = true;
        ctx.goal_key = item.key;
        ctx.incumbent.store(item.g, std::memory_order_relaxed);
      }
      continue;  // never expanded: no completion extends a complete state for free
    }
    const bool go = checkpoint.poll(
        [&] {
          self.table.set_overhead_bytes(pdb_share + self.queue.bytes());
          flush_introspection();
        },
        [&](obs::ProgressObservation& ob) {
          ob.expanded = ctx.expanded.load(std::memory_order_relaxed);
          ob.frontier_f_scaled = f;
          const std::int64_t inc =
              ctx.incumbent.load(std::memory_order_relaxed);
          ob.incumbent_scaled = inc < no_incumbent ? inc : -1;
          summarize_open(ob, self.queue,
                         [](std::int64_t fq, std::int64_t) { return fq; });
          ob.dup_skipped = ctx.dup_skipped.load(std::memory_order_relaxed);
          ob.dead_prunes = ctx.dead_prunes.load(std::memory_order_relaxed);
          ob.attr_counting =
              ctx.attr_counting.load(std::memory_order_relaxed);
          ob.attr_pdb = ctx.attr_pdb.load(std::memory_order_relaxed);
          ob.spilled_states = self.table.spilled_states();
          ob.spill_bytes = self.table.spill_bytes();
          ob.merge_passes = self.table.merge_passes();
        });
    if (!go) {
      ctx.abort_with(ExactTermination::Stopped);
      break;
    }
    const std::size_t ticket =
        ctx.expanded.fetch_add(1, std::memory_order_relaxed);
    if (ticket >= max_states) {
      ctx.expanded.fetch_sub(1, std::memory_order_relaxed);
      ctx.abort_with(ExactTermination::StateBudget);
      break;
    }
    ++local_expanded;
    expander.expand(item.g, nullptr,
                    [&](const Move& move, const Packed& next,
                        std::int64_t next_g, std::int64_t h) {
                      const std::int64_t next_f = next_g + h;
                      if (next_f >=
                          ctx.incumbent.load(std::memory_order_relaxed)) {
                        return;
                      }
                      route({next.key(), next_g, next_f, move,
                             static_cast<std::uint8_t>(
                                 expander.current().field(move.node))});
                    });
  }
  flush_introspection();
}

/// HDA* pays per-state routing latency; on an instance whose search frontier
/// is a single state (level width 1 — chains), that is all it does. Fall
/// back to one worker there: the sequential path costs nothing to detect
/// and beats an 8-thread game of pass-the-parcel by orders of magnitude.
bool serial_instance(const Dag& dag) {
  const std::size_t n = dag.node_count();
  if (n < 2) return true;
  std::vector<std::size_t> width(longest_path_length(dag) + 1, 0);
  for (std::size_t d : node_depths(dag)) {
    if (++width[d] > 1) return false;
  }
  return true;
}

template <typename Packed, typename Masks>
std::optional<ExactResult> hda_impl(const Engine& engine, std::size_t workers,
                                    const ExactSearchOptions& opt,
                                    ExactSearchStats& stats) {
  using Key = typename Packed::Key;
  const Dag& dag = engine.dag();
  const Model& model = engine.model();
  const std::size_t n = dag.node_count();
  const std::int64_t eps_den = model.epsilon().den();

  auto give_up = [&](ExactTermination why) -> std::optional<ExactResult> {
    stats.termination = why;
    return std::nullopt;
  };

  // The incumbent starts one past the universal ceiling — or at the seed's
  // verified cost, pruning speculation above a known completion from move
  // one — so "f >= incumbent" subsumes the ceiling prune of the sequential
  // A* until a real complete state undercuts it.
  const std::int64_t ceiling = universal_search_ceiling_scaled(dag, model);
  const std::int64_t seeded_incumbent =
      opt.seed ? std::min(ceiling + 1, opt.seed->g_scaled) : ceiling + 1;

  std::optional<PatternDatabase> pdb;
  if (!build_search_pdb(pdb, engine, opt, stats)) {
    return give_up(ExactTermination::Stopped);
  }

  // One spill directory per search, one private partition per shard: run
  // files stay single-owner, so the disk path needs no locks. Declared
  // before the context so the shards' run files die first.
  std::optional<bigstate::SpillDirectory> spill_dir =
      make_spill_directory(opt);
  std::vector<std::string> spill_partitions;
  if (spill_dir) {
    spill_partitions.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      spill_partitions.push_back(
          spill_dir->partition("shard-" + std::to_string(w)));
    }
  }
  SearchContext<Packed> ctx(
      n, workers, static_cast<std::size_t>(ceiling) + 1,
      opt.max_memory_bytes == 0 ? 0
                                : std::max<std::size_t>(
                                      1, opt.max_memory_bytes / workers),
      spill_partitions,
      opt.max_disk_bytes == 0
          ? 0
          : std::max<std::size_t>(1, opt.max_disk_bytes / workers),
      seeded_incumbent);
  stats.threads_used = workers;
  auto harvest = [&] {
    for (const auto& shard : ctx.shards) {
      harvest_table_stats(stats, shard->table, true);
    }
  };

  Expander<Packed, Masks> seeder(engine, pdb ? &*pdb : nullptr, stats, false);
  const Packed start = seeder.start();
  {
    const std::optional<std::int64_t> start_h = seeder.bound(start);
    if (!start_h || *start_h >= seeded_incumbent) {
      if (!opt.seed) return give_up(ExactTermination::Exhausted);
      harvest();
      return seed_wins(*opt.seed, eps_den, stats);
    }
    // Seed the owner shard before any worker exists; thread creation
    // publishes it.
    Shard<Packed>& home =
        ctx.shard(hda::owner_of<Packed>(start.key(), workers));
    if (home.table.relax(start.key(), 0, start.key(),
                         Move{MoveType::Load, 0}) ==
        Shard<Packed>::Table::Relax::OutOfMemory) {
      harvest();
      return give_up(ExactTermination::MemoryBudget);
    }
    home.queue.push(*start_h, start.key(), 0);
  }

  const obs::TraceSpan search_span("hda.search", "workers", workers);
  // Worker threads are fresh: hand them the spawner's trace context so their
  // spans keep the originating request id.
  const std::uint64_t trace_ctx = obs::trace_context();
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      const obs::ScopedTraceContext ctx_scope(trace_ctx);
      try {
        hda_worker<Packed, Masks>(engine, ctx, pdb ? &*pdb : nullptr, w,
                                  opt.max_states, opt.should_stop,
                                  opt.progress,
                                  ceiling + 1);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(ctx.error_mutex);
          if (!ctx.error) ctx.error = std::current_exception();
        }
        ctx.abort_with(ExactTermination::Stopped);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  stats.states_expanded = ctx.expanded.load(std::memory_order_relaxed);
  stats.dup_skipped = ctx.dup_skipped.load(std::memory_order_relaxed);
  stats.dead_prunes = ctx.dead_prunes.load(std::memory_order_relaxed);
  stats.attr_counting = ctx.attr_counting.load(std::memory_order_relaxed);
  stats.attr_pdb = ctx.attr_pdb.load(std::memory_order_relaxed);
  stats.closure_walks = ctx.closure_walks.load(std::memory_order_relaxed);
  stats.closure_memo_hits =
      ctx.closure_memo_hits.load(std::memory_order_relaxed);
  harvest();
  if (ctx.error) std::rethrow_exception(ctx.error);
  if (ctx.abort.load(std::memory_order_acquire)) {
    return give_up(static_cast<ExactTermination>(
        ctx.abort_why.load(std::memory_order_relaxed)));
  }
  if (!ctx.has_goal) {
    // Quiescence with no goal: with a seed it proves nothing beats the
    // seed; without one the reachable graph is exhausted.
    if (opt.seed) return seed_wins(*opt.seed, eps_den, stats);
    return give_up(ExactTermination::Exhausted);
  }

  // Quiescence proved nothing open prices below the incumbent, so the chain
  // of tree edges behind goal_key is an optimal pebbling. Every entry lives
  // in its key's owner shard; all shards are safely readable after the join.
  ExactResult result;
  result.trace = reconstruct_trace(
      ctx.goal_key, start.key(), [&](const Key& key) {
        return ctx.shard(hda::owner_of<Packed>(key, workers)).table.at(key);
      });
  result.cost = Rational(ctx.incumbent.load(std::memory_order_relaxed), eps_den);
  result.states_expanded = stats.states_expanded;
  stats.termination = ExactTermination::Solved;
  return result;
}

}  // namespace

std::size_t hda_resolve_threads(std::size_t threads) {
  RBPEB_REQUIRE(threads <= kHdaAstarMaxThreads,
                "hda-astar supports at most " +
                    std::to_string(kHdaAstarMaxThreads) + " threads");
  if (threads != 0) return threads;
  const auto hw = static_cast<std::size_t>(std::thread::hardware_concurrency());
  // The hw fallback honors the same cap explicit requests are checked
  // against; a >256-thread machine gets the cap, not a throw or a bypass.
  return std::clamp<std::size_t>(hw, 1, kHdaAstarMaxThreads);
}

std::optional<ExactResult> try_solve_hda_astar(
    const Engine& engine, std::size_t threads,
    const ExactSearchOptions& options, ExactSearchStats* stats) {
  const std::size_t n = engine.dag().node_count();
  RBPEB_REQUIRE(n <= kHdaAstarMaxNodes,
                "solve_hda_astar supports at most 1024 nodes");
  std::size_t workers = hda_resolve_threads(threads);
  if (workers > 1 && serial_instance(engine.dag())) workers = 1;
  ExactSearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = {};
  return dispatch_search_width(n, [&]<class Packed, class Masks>() {
    return hda_impl<Packed, Masks>(engine, workers, options, *stats);
  });
}

std::optional<ExactResult> try_solve_hda_astar(const Engine& engine,
                                               std::size_t threads,
                                               std::size_t max_states,
                                               const StopPredicate& should_stop,
                                               ExactSearchStats* stats) {
  ExactSearchOptions options;
  options.max_states = max_states;
  options.should_stop = should_stop;
  return try_solve_hda_astar(engine, threads, options, stats);
}

ExactResult solve_hda_astar(const Engine& engine, std::size_t threads,
                            std::size_t max_states) {
  ExactSearchStats stats;
  auto result = try_solve_hda_astar(engine, threads, max_states, {}, &stats);
  return result_or_throw(std::move(result), stats.termination,
                         "solve_hda_astar");
}

}  // namespace rbpeb
