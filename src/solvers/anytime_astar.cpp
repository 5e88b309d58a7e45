#include "src/solvers/anytime_astar.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/obs/trace.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/bucket_queue.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/expander.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

namespace {

template <typename Packed, typename Masks>
std::optional<AnytimeResult> anytime_impl(const Engine& engine,
                                          const ExactSearchOptions& opt,
                                          const AnytimeOptions& any,
                                          const AstarTraceNames& names,
                                          ExactSearchStats& stats) {
  using Key = typename Packed::Key;
  using Table = SpillingClosedTable<Packed>;
  const Dag& dag = engine.dag();
  const Model& model = engine.model();
  const std::size_t n = dag.node_count();
  const std::int64_t eps_den = model.epsilon().den();
  const obs::TraceSpan search_span(names.search, "nodes", n);

  const std::int64_t ceiling = universal_search_ceiling_scaled(dag, model);

  // The incumbent: cheapest verified completion seen so far. ceiling+1
  // means none yet — nothing optimal prices beyond the universal bound.
  std::int64_t C =
      opt.seed ? std::min(ceiling + 1, opt.seed->g_scaled) : ceiling + 1;
  Trace best_trace = opt.seed ? opt.seed->trace : Trace{};
  bool have_trace = opt.seed.has_value();
  bool incumbent_from_seed = opt.seed.has_value();

  std::optional<bigstate::SpillDirectory> spill_dir =
      make_spill_directory(opt);

  std::optional<PatternDatabase> pdb;
  if (!build_search_pdb(pdb, engine, opt, stats)) {
    stats.termination = ExactTermination::Stopped;
    return std::nullopt;
  }
  Expander<Packed, Masks> expander(engine, pdb ? &*pdb : nullptr, stats,
                                   opt.progress != nullptr);
  const std::size_t pdb_bytes = stats.pdb_bytes;

  const Packed start = expander.start();
  const std::optional<std::int64_t> start_h = expander.bound(start);

  // The proved lower bound on the optimum. The admissible start bound never
  // exceeds a verified completion's cost, so the clamp is purely defensive.
  std::int64_t L = 0;
  if (!start_h) {
    // A dead start admits no completion at all — unless a verified seed
    // proved one exists, in which case nothing can price below it.
    if (!opt.seed) {
      stats.termination = ExactTermination::Exhausted;
      return std::nullopt;
    }
    L = C;
  } else {
    L = std::min(*start_h, C);
  }

  auto finish = [&](ExactTermination term) -> std::optional<AnytimeResult> {
    stats.lower_bound_scaled = L;
    if (!have_trace) {
      // Closing the gap without a trace proves that nothing completes.
      stats.termination =
          term == ExactTermination::Solved ? ExactTermination::Exhausted : term;
      return std::nullopt;
    }
    stats.termination = term;
    stats.incumbent_scaled = C;
    stats.seed_won = incumbent_from_seed && C == L;
    AnytimeResult result;
    result.trace = std::move(best_trace);
    result.cost = Rational(C, eps_den);
    result.lower_bound = Rational(L, eps_den);
    result.optimal = (C == L);
    result.states_expanded = stats.states_expanded;
    if (result.optimal) {
      result.epsilon = Rational(0, 1);
    } else if (L > 0) {
      result.epsilon = Rational(C - L, L);
    } else {
      // lower_bound == 0 < cost: no finite ε makes cost ≤ (1+ε)·0 hold.
      result.certified = false;
      result.epsilon = Rational(0, 1);
    }
    return result;
  };
  auto epsilon_target_met = [&] {
    return have_trace && L > 0 && C > L &&
           static_cast<double>(C - L) <=
               any.target_epsilon * static_cast<double>(L);
  };

  const std::vector<AnytimeWeight> schedule =
      any.weights.empty() ? std::vector<AnytimeWeight>{{1, 1}} : any.weights;
  std::size_t& expanded = stats.states_expanded;
  SearchCheckpoint checkpoint(names.checkpoint, expanded, opt.should_stop,
                              opt.progress);
  // The previous pass's final table population: the next pass's table
  // starts at a slab that holds it, budget permitting (reserve()).
  std::size_t last_table_size = 0;

  for (std::size_t pass = 0; pass < schedule.size(); ++pass) {
    if (C <= L) return finish(ExactTermination::Solved);
    // Stopping rule only — the certificate already meets the target.
    if (epsilon_target_met()) return finish(ExactTermination::StateBudget);
    // The first pass always runs, so even a zero budget tests the start.
    if (pass > 0 && expanded >= opt.max_states) break;

    const AnytimeWeight w = schedule[pass];
    // At weight 1 items pop in unweighted-f order, so the first completion
    // popped is optimal — the A* argument — and ends the pass.
    const bool unit = w.num == w.den;
    const obs::TraceSpan pass_span(names.pass, "pass", pass);
    // Fresh table and queue per pass: the previous pass's footprint is
    // released before this one is charged against the memory budget.
    Table table(n, opt.max_memory_bytes, spill_dir ? spill_dir->path() : "",
                opt.max_disk_bytes);
    // Pushed items satisfy g + h < C, and C only falls during the pass. So
    // does the start item: here C > L >= min(start h, initial C). w >= 1
    // gives g + floor(w·h) <= floor(w·(g + h)) <= floor(w·(C − 1)), so the
    // incumbent sizes the spine; with none yet, C − 1 is the ceiling.
    const std::int64_t max_priority = (C - 1) * w.num / w.den;
    // Items carry their g at push time; stale when it no longer matches.
    KeyQueue<Packed> queue(static_cast<std::size_t>(max_priority) + 1, n);
    auto weighted = [&](std::int64_t g, std::int64_t h) {
      const std::int64_t priority = unit ? g + h : g + h * w.num / w.den;
      RBPEB_ENSURE(priority <= max_priority,
                   "weighted priority beyond the pass's incumbent");
      return priority;
    };
    // The certificate currency is the unweighted f = g + h: pruning and
    // frontier bounds read it, the weighted priority only orders pops.
    // h -> floor(w·h) is injective for w >= 1, so f comes back exactly.
    auto unweighted = [&](std::int64_t priority, std::int64_t g) {
      return unit ? priority
                  : g + ((priority - g) * w.den + w.num - 1) / w.num;
    };
    // A pass's table dies with the pass; fold its footprint into the stats
    // before it does.
    auto end_pass = [&](ExactTermination why) {
      harvest_table_stats(stats, table, false);
      return finish(why);
    };

    table.set_overhead_bytes(pdb_bytes + queue.bytes());
    table.reserve(last_table_size);
    if (table.relax(start.key(), 0, start.key(), Move{MoveType::Load, 0}) ==
        Table::Relax::OutOfMemory) {
      return end_pass(ExactTermination::MemoryBudget);
    }
    queue.push(weighted(0, *start_h), start.key(), 0);

    // This pass's slice of the global expansion budget; the last pass takes
    // whatever remains.
    const std::size_t pass_budget =
        expanded + std::max<std::size_t>(
                       1, (opt.max_states - expanded) / (schedule.size() - pass));

    // C is proved optimal: the queue drained below it, or a weight-1 pass
    // popped a completion. Otherwise the budget cut the pass at an open
    // item whose f is `frontier`.
    bool proved = false;
    std::int64_t frontier = C;
    while (true) {
      if (queue.empty()) {
        proved = true;
        break;
      }
      const auto item = queue.pop();
      const std::int64_t f = unweighted(item.priority, item.g);
      // An incumbent found after this push may have overtaken its f; the
      // unweighted prune is what keeps weighted passes certificate-sound.
      if (f >= C) continue;
      // Expansion gate: each (key, g) expands at most once, and only at
      // the best known g.
      if (table.begin_expansion(item.key, item.g) == Table::Pop::Skip) {
        ++stats.dup_skipped;
        continue;
      }
      if (expander.enter(item.key)) {
        // f < C and h >= 0 give g < C: a strictly better incumbent.
        best_trace = reconstruct_trace(
            item.key, start.key(),
            [&](const Key& key) { return table.at(key); });
        C = item.g;
        have_trace = true;
        incumbent_from_seed = false;
        if (unit) {
          proved = true;
          break;
        }
        // Weighted order may surface an even cheaper completion later in
        // the same pass: keep popping.
        continue;
      }
      if (expanded >= pass_budget || expanded >= opt.max_states) {
        frontier = f;
        break;
      }
      const bool go = checkpoint.poll(
          [&] { table.set_overhead_bytes(pdb_bytes + queue.bytes()); },
          [&](obs::ProgressObservation& ob) {
            // A weight-1 pass pops in f order, so the popped f is a
            // frontier minimum; a weighted pass's is not, and the frontier
            // is the certificate bound L, which moves only between passes.
            ob.expanded = expanded;
            ob.frontier_f_scaled = unit ? std::max(L, f) : L;
            ob.incumbent_scaled = have_trace ? C : -1;
            summarize_open(ob, queue, unweighted);
            ob.dup_skipped = stats.dup_skipped;
            ob.dead_prunes = stats.dead_prunes;
            ob.attr_counting = stats.attr_counting;
            ob.attr_pdb = stats.attr_pdb;
            ob.spilled_states = stats.spilled_states + table.spilled_states();
            ob.spill_bytes = stats.spill_bytes + table.spill_bytes();
            ob.merge_passes = stats.merge_passes + table.merge_passes();
          });
      // A cancelled pass proves nothing beyond its predecessors.
      if (!go) return end_pass(ExactTermination::Stopped);
      ++expanded;
      const bool fits = expander.expand(
          item.g, &table,
          [&](const Move&, const Packed& next, std::int64_t next_g,
              std::int64_t h) {
            if (next_g + h >= C) return;  // unweighted prune — sound
            queue.push(weighted(next_g, h), next.key(), next_g);
          });
      if (!fits) return end_pass(ExactTermination::MemoryBudget);
    }

    ++stats.anytime_passes;
    harvest_table_stats(stats, table, false);
    last_table_size = table.size();
    if (proved) {
      // With an incumbent, nothing open prices below C — at any weight,
      // since pruning was unweighted; without one the instance has no
      // completion at all.
      if (have_trace) L = C;
      return finish(ExactTermination::Solved);
    }
    // Frontier lemma: any completion cheaper than C that this pass has not
    // found keeps an open item on its path with unweighted f at most its
    // cost — the cut item or one still queued. Stale items only lower the
    // minimum, keeping it admissible.
    queue.for_each([&](std::int64_t priority, std::int64_t g) {
      frontier = std::min(frontier, unweighted(priority, g));
    });
    L = std::max(L, frontier);
  }

  return finish(C <= L ? ExactTermination::Solved
                       : ExactTermination::StateBudget);
}

}  // namespace

std::optional<AnytimeResult> run_astar_driver(const Engine& engine,
                                              const ExactSearchOptions& options,
                                              const AnytimeOptions& anytime,
                                              const AstarTraceNames& names,
                                              ExactSearchStats* stats) {
  const std::size_t n = engine.dag().node_count();
  RBPEB_REQUIRE(n <= kExactAstarMaxNodes,
                "the A* driver supports at most 1024 nodes");
  for (const AnytimeWeight& w : anytime.weights) {
    RBPEB_REQUIRE(anytime_weight_supported(w),
                  "anytime weights must be ratios in [1, 16] with numerator "
                  "and denominator at most 1000");
  }
  RBPEB_REQUIRE(anytime.target_epsilon >= 0.0,
                "target epsilon must be nonnegative");
  ExactSearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = {};  // a reused struct must not accumulate across calls
  return dispatch_search_width(n, [&]<class Packed, class Masks>() {
    return anytime_impl<Packed, Masks>(engine, options, anytime, names,
                                       *stats);
  });
}

std::optional<AnytimeResult> try_solve_anytime_astar(
    const Engine& engine, const ExactSearchOptions& options,
    const AnytimeOptions& anytime, ExactSearchStats* stats) {
  return run_astar_driver(engine, options, anytime, AstarTraceNames{}, stats);
}

}  // namespace rbpeb
