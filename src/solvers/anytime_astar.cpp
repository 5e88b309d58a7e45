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
                                          ExactSearchStats& stats) {
  using Key = typename Packed::Key;
  using Table = SpillingClosedTable<Packed>;
  const Dag& dag = engine.dag();
  const Model& model = engine.model();
  const std::size_t n = dag.node_count();
  const std::int64_t eps_den = model.epsilon().den();
  const obs::TraceSpan search_span("anytime.search", "nodes", n);

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
  if (!build_search_pdb(pdb, engine, opt)) {
    stats.termination = ExactTermination::Stopped;
    return std::nullopt;
  }
  Expander<Packed, Masks> expander(engine, pdb ? &*pdb : nullptr, stats,
                                   opt.progress != nullptr);
  const std::size_t pdb_bytes = pdb ? pdb->table_bytes() : 0;

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
    stats.termination = term;
    stats.lower_bound_scaled = L;
    if (!have_trace) return std::nullopt;
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
  struct QueueItem {
    Key key;
    std::int64_t g;  ///< g at push time; stale when it no longer matches.
    std::int64_t f;  ///< unweighted g + h at push time — the certificate
                     ///< currency: pruning and frontier bounds read it, the
                     ///< weighted priority never does.
  };
  std::size_t& expanded = stats.states_expanded;
  SearchCheckpoint checkpoint("anytime.checkpoint", expanded, opt.should_stop,
                              opt.progress);

  for (std::size_t pass = 0; pass < schedule.size(); ++pass) {
    if (C <= L) return finish(ExactTermination::Solved);
    // Stopping rule only — the certificate already meets the target.
    if (epsilon_target_met()) return finish(ExactTermination::StateBudget);
    if (expanded >= opt.max_states) break;

    const AnytimeWeight w = schedule[pass];
    const obs::TraceSpan pass_span("anytime.pass", "pass", pass);
    // Fresh table and queue per pass: the previous pass's footprint is
    // released before this one is charged against the memory budget.
    Table table(n, opt.max_memory_bytes, spill_dir ? spill_dir->path() : "",
                opt.max_disk_bytes);
    // Pushed items satisfy g + h < C ≤ ceiling + 1, so g and h each stay
    // within the ceiling and the weighted priority within (1 + w)·ceiling.
    // The clamp is defensive — priorities only order expansion, the
    // certificate never reads them.
    const std::int64_t max_priority = ceiling + (ceiling * w.num) / w.den + 2;
    BucketQueue<QueueItem> queue(static_cast<std::size_t>(max_priority) + 1);
    auto weighted = [&](std::int64_t g, std::int64_t h) {
      return std::min(g + (h * w.num) / w.den, max_priority);
    };
    // A pass's table dies with the pass; fold its footprint into the stats
    // before it does.
    auto end_pass = [&](ExactTermination why) {
      harvest_table_stats(stats, table, false);
      return finish(why);
    };

    table.set_overhead_bytes(pdb_bytes + queue.bytes());
    if (table.relax(start.key(), 0, start.key(), Move{MoveType::Load, 0}) ==
        Table::Relax::OutOfMemory) {
      return end_pass(ExactTermination::MemoryBudget);
    }
    queue.push(weighted(0, *start_h), {start.key(), 0, *start_h});

    // This pass's slice of the global expansion budget; the last pass takes
    // whatever remains.
    const std::size_t pass_budget =
        expanded + std::max<std::size_t>(
                       1, (opt.max_states - expanded) / (schedule.size() - pass));

    bool drained = false;
    bool cut = false;
    while (true) {
      if (queue.empty()) {
        drained = true;
        break;
      }
      auto [priority, item] = queue.pop();
      (void)priority;
      // An incumbent found after this push may have overtaken its f; the
      // unweighted prune is what keeps weighted passes certificate-sound.
      if (item.f >= C) continue;
      const auto pop = table.begin_expansion(item.key, item.g);
      if (pop == Table::Pop::OutOfMemory) {
        return end_pass(ExactTermination::MemoryBudget);
      }
      if (pop == Table::Pop::Skip) {
        ++stats.dup_skipped;
        continue;
      }
      if (expander.enter(item.key)) {
        // item.f < C and h ≥ 0 give g < C: a strictly better incumbent.
        // Unlike exact A*, keep popping — weighted order may surface an
        // even cheaper completion later in the same pass.
        table.settle();
        best_trace = reconstruct_trace(
            item.key, start.key(),
            [&](const Key& key) { return table.at(key); });
        C = item.g;
        have_trace = true;
        incumbent_from_seed = false;
        continue;
      }
      if (expanded >= pass_budget || expanded >= opt.max_states) {
        cut = true;
        break;
      }
      const bool go = checkpoint.poll(
          [&] { table.set_overhead_bytes(pdb_bytes + queue.bytes()); },
          [&](obs::ProgressObservation& ob) {
            // The frontier here is L, the proved certificate bound — a
            // weighted pass pops out of unweighted-f order, so the popped
            // priority is NOT a frontier min; L is what the anytime tier
            // actually certifies and it only moves at pass boundaries.
            ob.expanded = expanded;
            ob.frontier_f_scaled = L;
            ob.incumbent_scaled = have_trace ? C : -1;
            summarize_open(ob, queue, [](std::int64_t, const QueueItem& qi) {
              return qi.f;  // the priority is weighted; report unweighted f
            });
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
            const std::int64_t next_f = next_g + h;
            if (next_f >= C) return;  // unweighted prune — sound
            queue.push(weighted(next_g, h), {next.key(), next_g, next_f});
          });
      if (!fits) return end_pass(ExactTermination::MemoryBudget);
    }

    ++stats.anytime_passes;
    harvest_table_stats(stats, table, false);
    if (drained) {
      // The reachable set below C is exhausted. With an incumbent that
      // proves C optimal — at any weight, since pruning was unweighted;
      // without one the instance has no completion at all.
      if (!have_trace) {
        stats.termination = ExactTermination::Exhausted;
        stats.lower_bound_scaled = L;
        return std::nullopt;
      }
      L = C;
      return finish(ExactTermination::Solved);
    }
    if (cut) {
      // Frontier lemma: any completion cheaper than C that this pass has
      // not found keeps an open item on its path with unweighted f at most
      // its cost — so the drained minimum lower-bounds the optimum. Stale
      // items only lower the minimum, keeping it admissible.
      std::int64_t frontier = C;
      while (!queue.empty()) {
        auto [priority, item] = queue.pop();
        (void)priority;
        frontier = std::min(frontier, item.f);
      }
      L = std::max(L, frontier);
    }
  }

  if (C <= L) return finish(ExactTermination::Solved);
  return finish(ExactTermination::StateBudget);
}

}  // namespace

std::optional<AnytimeResult> try_solve_anytime_astar(
    const Engine& engine, const ExactSearchOptions& options,
    const AnytimeOptions& anytime, ExactSearchStats* stats) {
  const std::size_t n = engine.dag().node_count();
  RBPEB_REQUIRE(n <= kExactAstarMaxNodes,
                "solve_anytime_astar supports at most 1024 nodes");
  for (const AnytimeWeight& w : anytime.weights) {
    RBPEB_REQUIRE(w.num > 0 && w.den > 0 && w.num >= w.den,
                  "anytime weights must be ratios >= 1");
  }
  RBPEB_REQUIRE(anytime.target_epsilon >= 0.0,
                "target epsilon must be nonnegative");
  ExactSearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = {};  // a reused struct must not accumulate across calls
  return dispatch_search_width(n, [&]<class Packed, class Masks>() {
    return anytime_impl<Packed, Masks>(engine, options, anytime, *stats);
  });
}

}  // namespace rbpeb
