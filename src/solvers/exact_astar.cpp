#include "src/solvers/exact_astar.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/obs/trace.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/bucket_queue.hpp"
#include "src/solvers/expander.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

static_assert(kExactAstarMaxNodes == StateBoundEvaluator::kVecMaskMaxNodes,
              "the search cap is the runtime-width bound cap");
static_assert(kExactAstarFixedMaxNodes == PackedKey<2>::max_nodes(),
              "the fixed-width cap is the two-word packing limit");

namespace {

template <typename Packed, typename Masks>
std::optional<ExactResult> astar_impl(const Engine& engine,
                                      const ExactSearchOptions& opt,
                                      ExactSearchStats& stats) {
  using Key = typename Packed::Key;
  using Table = SpillingClosedTable<Packed>;
  const Dag& dag = engine.dag();
  const Model& model = engine.model();
  const std::size_t n = dag.node_count();
  const std::int64_t eps_den = model.epsilon().den();
  const obs::TraceSpan search_span("astar.search", "nodes", n);

  // Anything priced beyond the universal ceiling is dropped — no optimal
  // pebbling lives there — which also caps the bucket count. A seeded
  // incumbent tightens the same prune: nothing pricing at or above a known
  // completion's cost can beat it.
  const std::int64_t ceiling = universal_search_ceiling_scaled(dag, model);
  const std::int64_t incumbent =
      opt.seed ? std::min(ceiling + 1, opt.seed->g_scaled) : ceiling + 1;

  // The spill directory outlives the table reading/writing under it and is
  // removed wholesale on every exit path, cancellation included.
  std::optional<bigstate::SpillDirectory> spill_dir =
      make_spill_directory(opt);
  Table table(n, opt.max_memory_bytes, spill_dir ? spill_dir->path() : "",
              opt.max_disk_bytes);
  struct QueueItem {
    Key key;
    std::int64_t g;  ///< g at push time; stale when it no longer matches.
  };
  BucketQueue<QueueItem> queue(static_cast<std::size_t>(ceiling) + 1);

  std::optional<PatternDatabase> pdb;
  if (!build_search_pdb(pdb, engine, opt)) {
    stats.termination = ExactTermination::Stopped;
    return std::nullopt;
  }
  Expander<Packed, Masks> expander(engine, pdb ? &*pdb : nullptr, stats,
                                   opt.progress != nullptr);
  // PDB tables and the bucket arrays live inside the same memory budget as
  // the closed table; the queue share is refreshed at the poll checkpoints.
  const std::size_t pdb_bytes = pdb ? pdb->table_bytes() : 0;
  table.set_overhead_bytes(pdb_bytes + queue.bytes());

  auto give_up = [&](ExactTermination why) -> std::optional<ExactResult> {
    stats.termination = why;
    harvest_table_stats(stats, table, false);
    return std::nullopt;
  };
  auto exhausted = [&]() -> std::optional<ExactResult> {
    // A verified seed proves the instance completable, so running dry can
    // only mean no completion prices below the seed.
    if (!opt.seed) return give_up(ExactTermination::Exhausted);
    harvest_table_stats(stats, table, false);
    return seed_wins(*opt.seed, eps_den, stats);
  };

  const Packed start = expander.start();
  const std::optional<std::int64_t> start_h = expander.bound(start);
  if (!start_h || *start_h >= incumbent) return exhausted();
  if (table.relax(start.key(), 0, start.key(), Move{MoveType::Load, 0}) ==
      Table::Relax::OutOfMemory) {
    return give_up(ExactTermination::MemoryBudget);
  }
  queue.push(*start_h, {start.key(), 0});

  std::size_t& expanded = stats.states_expanded;
  SearchCheckpoint checkpoint("astar.checkpoint", expanded, opt.should_stop,
                              opt.progress);
  while (!queue.empty()) {
    auto [f, item] = queue.pop();
    // Expansion gate: stale-g check plus the delayed duplicate check
    // against any spill runs — each (key, g) expands at most once.
    const auto pop = table.begin_expansion(item.key, item.g);
    if (pop == Table::Pop::OutOfMemory) {
      return give_up(ExactTermination::MemoryBudget);
    }
    if (pop == Table::Pop::Skip) {
      ++stats.dup_skipped;
      continue;
    }
    if (expander.enter(item.key)) {
      // Settle unverified entries first: an evicted-then-regenerated
      // ancestor's RAM entry could otherwise splice a worse tree edge
      // into the optimal trace.
      table.settle();
      ExactResult result;
      result.trace = reconstruct_trace(
          item.key, start.key(),
          [&](const Key& key) { return table.at(key); });
      result.cost = Rational(item.g, eps_den);
      result.states_expanded = expanded;
      stats.termination = ExactTermination::Solved;
      harvest_table_stats(stats, table, false);
      return result;
    }
    if (expanded >= opt.max_states) {
      return give_up(ExactTermination::StateBudget);
    }
    const bool go = checkpoint.poll(
        [&] { table.set_overhead_bytes(pdb_bytes + queue.bytes()); },
        [&](obs::ProgressObservation& ob) {
          ob.expanded = expanded;
          ob.frontier_f_scaled = f;  // popped min-f: a certified lower bound
          ob.incumbent_scaled = opt.seed ? incumbent : -1;
          summarize_open(ob, queue, [](std::int64_t fq, const QueueItem&) {
            return fq;
          });
          ob.dup_skipped = stats.dup_skipped;
          ob.dead_prunes = stats.dead_prunes;
          ob.attr_counting = stats.attr_counting;
          ob.attr_pdb = stats.attr_pdb;
          ob.spilled_states = table.spilled_states();
          ob.spill_bytes = table.spill_bytes();
          ob.merge_passes = table.merge_passes();
        });
    if (!go) return give_up(ExactTermination::Stopped);
    ++expanded;
    const bool fits = expander.expand(
        item.g, &table,
        [&](const Move&, const Packed& next, std::int64_t next_g,
            std::int64_t h) {
          const std::int64_t next_f = next_g + h;
          if (next_f >= incumbent) return;  // no winner lives beyond it
          queue.push(next_f, {next.key(), next_g});
        });
    if (!fits) return give_up(ExactTermination::MemoryBudget);
  }
  return exhausted();
}

}  // namespace

std::optional<ExactResult> try_solve_exact_astar(
    const Engine& engine, const ExactSearchOptions& options,
    ExactSearchStats* stats) {
  const std::size_t n = engine.dag().node_count();
  RBPEB_REQUIRE(n <= kExactAstarMaxNodes,
                "solve_exact_astar supports at most 1024 nodes");
  ExactSearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = {};  // a reused struct must not accumulate across calls
  return dispatch_search_width(n, [&]<class Packed, class Masks>() {
    return astar_impl<Packed, Masks>(engine, options, *stats);
  });
}

std::optional<ExactResult> try_solve_exact_astar(
    const Engine& engine, std::size_t max_states,
    const StopPredicate& should_stop, ExactSearchStats* stats) {
  ExactSearchOptions options;
  options.max_states = max_states;
  options.should_stop = should_stop;
  return try_solve_exact_astar(engine, options, stats);
}

ExactResult solve_exact_astar(const Engine& engine, std::size_t max_states) {
  ExactSearchStats stats;
  auto result = try_solve_exact_astar(engine, max_states, {}, &stats);
  return result_or_throw(std::move(result), stats.termination,
                         "solve_exact_astar");
}

}  // namespace rbpeb
