// The expansion kernel the informed searches share — exact-astar,
// anytime-astar and every hda-astar worker run the same code between a pop
// and the pushes it produces. The sequential searches share their loop too
// (run_astar_driver, anytime_astar.hpp); hda-astar keeps its own for its
// routing and parallel termination.
//
//  * Expander<Packed, Masks> derives the legal successors of a state
//    straight from its red/blue/computed bit masks — no GameState, no
//    predecessor walks, no Engine::is_legal probes:
//      Store    v ∈ red
//      Load     v ∈ blue, while popcount(red) < R
//      Compute  pred_mask(v) ⊆ red, v ∉ red, popcount(red) < R; minus the
//               computed set under oneshot, minus sources under
//               sources-blue
//      Delete   v ∈ red ∪ blue, when the model allows deletion
//    in the v-major Load/Store/Compute/Delete order the Engine enumeration
//    used, so costs and expansion counts are unchanged. Completeness is a
//    sinks-mask test. The predecessor, sink and source masks are the bound
//    evaluator's own caches. tests/solvers/test_expander.cpp pins successor
//    lists, keys and completeness to the Engine for every (PackedKey,
//    Masks) pair the width dispatch returns.
//  * SearchCheckpoint is the 64-expansion poll (budget refresh, stop
//    predicate, `search.expanded` counter) and the 1024-expansion trace
//    instant and progress sample. Its destructor flushes the counter's
//    remainder, so the counter equals the expansions on every exit path.
//  * build_search_pdb, reconstruct_trace, harvest_table_stats, seed_wins,
//    result_or_throw and dispatch_search_width are the remaining blocks the
//    searches used to write out for themselves.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/introspect.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/bounds.hpp"
#include "src/pebble/engine.hpp"
#include "src/solvers/bigstate/ddd.hpp"
#include "src/solvers/bigstate/pdb.hpp"
#include "src/solvers/exact.hpp"
#include "src/solvers/exact_astar.hpp"
#include "src/solvers/packed_state.hpp"
#include "src/support/check.hpp"

namespace rbpeb {

/// One search worker's expansion kernel (holds the bound evaluator and its
/// scratch; not thread-safe — one per worker). `tally` receives the dead-
/// prune and closure-walk counts and, when `attribute` is set, the
/// per-expansion bound-source attribution.
template <typename Packed, typename Masks>
class Expander {
 public:
  using Key = typename Packed::Key;
  using Table = SpillingClosedTable<Packed>;

  Expander(const Engine& engine, const PatternDatabase* pdb,
           ExactSearchStats& tally, bool attribute)
      : engine_(engine),
        n_(engine.dag().node_count()),
        red_limit_(engine.red_limit()),
        bound_(engine),
        parent_(bound_.caches().words, pdb != nullptr ? pdb->term_count() : 0),
        tally_(tally),
        attribute_(attribute),
        oneshot_(!engine.model().allows_recompute()),
        allows_delete_(engine.model().allows_delete()),
        sources_blue_(engine.convention().sources_start_blue),
        sinks_blue_(engine.convention().sinks_end_blue),
        masks_(n_) {
    if (pdb != nullptr) bound_.attach_pdb(pdb);
    successors_.reserve(4 * n_);
    for (MoveType type : {MoveType::Load, MoveType::Store, MoveType::Compute,
                          MoveType::Delete}) {
      cost_[static_cast<std::size_t>(type)] =
          scaled_move_cost(engine.model(), type);
    }
  }

  /// The packed initial configuration.
  Packed start() const { return Packed::from_state(engine_.initial_state()); }

  /// Admissible completion bound of `state` (nullopt: provably dead).
  std::optional<std::int64_t> bound(const Packed& state) {
    return bound_.lower_bound_scaled(state);
  }

  /// Load a popped key as the state to expand; true when it is complete
  /// (every sink pebbled, or blue under sinks-blue).
  bool enter(const Key& key) {
    // Copy-assigned and refilled in place: runtime-width keys and masks
    // reuse their storage.
    current_ = key;
    masks_.assign(current_, n_);
    const std::uint64_t* red = masks_.red();
    const std::uint64_t* blue = masks_.blue();
    const std::uint64_t* sinks = bound_.caches().sinks.data();
    for (std::size_t w = 0; w < masks_.words(); ++w) {
      const std::uint64_t held = sinks_blue_ ? blue[w] : red[w] | blue[w];
      if ((sinks[w] & ~held) != 0) return false;
    }
    return true;
  }

  const Packed& current() const { return current_; }

  /// Visit the entered state's legal moves in v-major Load/Store/Compute/
  /// Delete order — the Engine's enumeration order.
  template <class Visit>
  void for_each_legal_move(Visit&& visit) const {
    const std::size_t words = masks_.words();
    const std::uint64_t* reds = masks_.red();
    const std::uint64_t* blues = masks_.blue();
    const std::uint64_t* computed = masks_.computed();
    const std::uint64_t* sources = bound_.caches().sources.data();
    std::size_t red_count = 0;
    for (std::size_t w = 0; w < words; ++w) {
      red_count += static_cast<std::size_t>(std::popcount(reds[w]));
    }
    const bool room = red_count < red_limit_;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t red = reds[w];
      const std::uint64_t pebbled = red | blues[w];
      const std::uint64_t load = room ? blues[w] : 0;
      std::uint64_t compute = 0;
      if (room) {
        compute = ~red & node_bits(w);
        if (oneshot_) compute &= ~computed[w];
        if (sources_blue_) compute &= ~sources[w];
      }
      const std::uint64_t del = allows_delete_ ? pebbled : 0;
      for (std::uint64_t any = load | red | compute | del; any != 0;
           any &= any - 1) {
        const int b = std::countr_zero(any);
        const std::uint64_t bit = std::uint64_t{1} << b;
        const auto v =
            static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
        if ((load & bit) != 0) visit(Move{MoveType::Load, v});
        if ((red & bit) != 0) visit(Move{MoveType::Store, v});
        if ((compute & bit) != 0 && inputs_red(v)) {
          visit(Move{MoveType::Compute, v});
        }
        if ((del & bit) != 0) visit(Move{MoveType::Delete, v});
      }
    }
  }

  /// Expand the entered state at cost `g`. Each legal move's successor is
  /// relaxed into `table` first when one is given (the sequential searches;
  /// stale paths stop there), then priced as a delta from the entered state
  /// (StateBoundEvaluator::successor_bound, equal to its lower_bound_scaled);
  /// a dead successor counts a prune, a live one goes to emit(move, next,
  /// next_g, h). With a table, every successor's hash is computed and its
  /// home slot prefetched before the first relax, so the table's random
  /// probes overlap. False when the table ran out of memory — the search
  /// must end.
  template <class Emit>
  bool expand(std::int64_t g, Table* table, Emit&& emit) {
    bound_.enter_parent(masks_, parent_);
    if (attribute_) {
      // Bound-source attribution: the entered state's bound, priced from
      // its recorded closure and PDB sum, only when someone is watching. An
      // expanded state is never dead — it priced under the incumbent when
      // generated.
      (void)bound_.entered_bound(masks_, parent_);
      if (bound_.last_source() == StateBoundEvaluator::BoundSource::Pdb) {
        ++tally_.attr_pdb;
      } else {
        ++tally_.attr_counting;
      }
    }
    successors_.clear();
    for_each_legal_move(
        [&](const Move& move) { successors_.push_back({move, 0}); });
    if (table != nullptr) {
      for (Successor& s : successors_) {
        s.hash = static_cast<std::size_t>(current_.hash_after(s.move));
        table->prefetch(s.hash);
      }
    }
    bool fits = true;
    for (const Successor& s : successors_) {
      const Move& move = s.move;
      // Built in scratch: only the table and the queue copy a key.
      next_ = current_;
      next_.apply_in_place(move);
      const std::int64_t next_g =
          g + cost_[static_cast<std::size_t>(move.type)];
      if (table != nullptr) {
        const auto relaxed =
            table->relax(next_.key(), s.hash, next_g, current_.key(), move);
        if (relaxed == Table::Relax::OutOfMemory) {
          fits = false;
          break;
        }
        if (relaxed == Table::Relax::Stale) continue;
      }
      // Copy-assigned scratch: runtime-width masks reuse their storage.
      next_masks_ = masks_;
      next_masks_.apply(move);
      const std::optional<std::int64_t> h =
          bound_.successor_bound(parent_, move, next_masks_);
      if (!h) {
        ++tally_.dead_prunes;  // provably dead: prune
        continue;
      }
      emit(move, next_, next_g, *h);
    }
    const StateBoundEvaluator::ClosureCounts counts =
        bound_.take_closure_counts();
    tally_.closure_walks += counts.walks;
    tally_.closure_memo_hits += counts.memo_hits;
    return fits;
  }

 private:
  /// Bits of word w that are nodes of the DAG.
  std::uint64_t node_bits(std::size_t w) const {
    const std::size_t first = w * 64;
    if (first >= n_) return 0;
    return n_ - first >= 64 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << (n_ - first)) - 1;
  }

  bool inputs_red(NodeId v) const {
    const std::size_t words = masks_.words();
    const std::uint64_t* pred =
        bound_.caches().pred.data() + static_cast<std::size_t>(v) * words;
    const std::uint64_t* red = masks_.red();
    for (std::size_t w = 0; w < words; ++w) {
      if ((pred[w] & ~red[w]) != 0) return false;
    }
    return true;
  }

  const Engine& engine_;
  std::size_t n_;
  std::size_t red_limit_;
  StateBoundEvaluator bound_;
  ParentBound<Masks::kWords> parent_;
  ExactSearchStats& tally_;
  bool attribute_;
  bool oneshot_;
  bool allows_delete_;
  bool sources_blue_;
  bool sinks_blue_;
  std::array<std::int64_t, 4> cost_{};
  /// A legal move of the entered state and its successor's hash (set only
  /// when expand() has a table).
  struct Successor {
    Move move;
    std::size_t hash;
  };
  std::vector<Successor> successors_;  ///< expand()'s scratch, ≤ 4n moves
  Packed current_{};
  Packed next_{};
  Masks masks_{};
  Masks next_masks_{};
};

/// The poll every informed search runs before each expansion, keyed on its
/// expansion count `expanded` (read by reference; the caller increments
/// it). Every 64 expansions, entry included: refresh the budget share, poll
/// the stop predicate, and bring the `search.expanded` counter up to date.
/// Every 1024: a trace instant and a progress sample. The destructor
/// flushes the counter's remainder on every exit path.
class SearchCheckpoint {
 public:
  SearchCheckpoint(const char* trace_name, const std::size_t& expanded,
                   const StopPredicate& should_stop,
                   obs::SearchProgressSampler* sampler)
      : name_(trace_name),
        expanded_(expanded),
        should_stop_(should_stop),
        sampler_(sampler),
        counter_(
            obs::MetricsRegistry::instance().counter("search.expanded")) {}
  SearchCheckpoint(const SearchCheckpoint&) = delete;
  SearchCheckpoint& operator=(const SearchCheckpoint&) = delete;
  ~SearchCheckpoint() { flush(); }

  /// `refresh()` runs at each 64-expansion poll; `sample(ob)` fills a
  /// progress observation when the sampler is due. False when the stop
  /// predicate fired: the search must end.
  template <class Refresh, class Sample>
  bool poll(Refresh&& refresh, Sample&& sample) {
    const std::size_t expanded = expanded_;
    if ((expanded & 0x3Fu) != 0) return true;
    refresh();
    if (should_stop_ && should_stop_()) return false;
    if (expanded == 0) return true;
    flush();
    if ((expanded & 0x3FFu) != 0) return true;
    // Trace instants every 16 polls: enough to see frontier progress in the
    // timeline without swamping the ring on multi-million-state searches.
    if (obs::trace_enabled()) obs::trace_instant(name_, "expanded", expanded);
    // The wall-clock rate limit (due()) keeps the O(open-list) summary off
    // fast solves' critical path.
    if (sampler_ != nullptr && sampler_->due()) {
      obs::ProgressObservation ob;
      sample(ob);
      sampler_->observe(ob);
    }
    return true;
  }

 private:
  void flush() {
    if (expanded_ > reported_) {
      counter_.add(expanded_ - reported_);
      reported_ = expanded_;
    }
  }

  const char* name_;
  const std::size_t& expanded_;
  const StopPredicate& should_stop_;
  obs::SearchProgressSampler* sampler_;
  obs::Counter& counter_;
  std::size_t reported_ = 0;
};

/// Summarize an open list into `ob`; `f_of(priority, g)` is an item's
/// unweighted f.
template <class Queue, class FOf>
void summarize_open(obs::ProgressObservation& ob, const Queue& queue,
                    FOf&& f_of) {
  ob.open_states = queue.size();
  queue.for_each([&](std::int64_t priority, std::int64_t g) {
    const std::int64_t f = f_of(priority, g);
    if (ob.open_f_min < 0 || f < ob.open_f_min) ob.open_f_min = f;
    ob.open_f_max = std::max(ob.open_f_max, f);
    if (ob.open_g_min < 0 || g < ob.open_g_min) ob.open_g_min = g;
    ob.open_g_max = std::max(ob.open_g_max, g);
  });
}

/// Build the pattern database `opt` asks for into `pdb` (left empty when
/// off): dense tables of width opt.pdb_pattern_size (1–8, 0 = the default
/// 6), one per isomorphism class of patterns; its table bytes go to
/// stats.pdb_bytes and its wall time to stats.pdb_build_ms. False when the
/// stop predicate aborted the build.
inline bool build_search_pdb(std::optional<PatternDatabase>& pdb,
                             const Engine& engine,
                             const ExactSearchOptions& opt,
                             ExactSearchStats& stats) {
  if (!bigstate_pdb_enabled(opt, engine.dag().node_count())) return true;
  const auto start = std::chrono::steady_clock::now();
  pdb.emplace(engine, opt.pdb_pattern_size, opt.should_stop);
  if (pdb->build_aborted()) return false;
  stats.pdb_bytes = pdb->table_bytes();
  stats.pdb_build_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  return true;
}

/// The optimal trace behind `goal`: tree edges walked back to `start`.
/// `entry_of(key)` returns the settled table entry of a key (by value).
template <class Key, class EntryOf>
Trace reconstruct_trace(const Key& goal, const Key& start, EntryOf&& entry_of) {
  std::vector<Move> reversed;
  Key cursor = goal;
  while (!(cursor == start)) {
    const auto& link = entry_of(cursor);
    reversed.push_back(link.via);
    cursor = link.parent;
  }
  Trace trace;
  for (std::size_t i = reversed.size(); i-- > 0;) trace.push(reversed[i]);
  return trace;
}

/// Fold one closed table's footprint into `stats`. Counters add up; byte
/// footprints add for tables alive at once (`concurrent`, the hda shards)
/// and take the max for tables alive one after another (anytime passes).
template <class Table>
void harvest_table_stats(ExactSearchStats& stats, const Table& table,
                         bool concurrent) {
  auto footprint = [&](std::size_t& into, std::size_t bytes) {
    into = concurrent ? into + bytes : std::max(into, bytes);
  };
  footprint(stats.table_bytes, table.bytes());
  footprint(stats.spill_peak_bytes, table.spill_peak_bytes());
  stats.spilled_states += table.spilled_states();
  stats.spill_bytes += table.spill_bytes();
  stats.merge_passes += table.merge_passes();
  stats.spill_io_error = stats.spill_io_error || table.spill_io_error();
  stats.table_headroom_stop =
      stats.table_headroom_stop || table.headroom_stop();
}

/// Nothing prices below the seed, so the seed is optimal — return it.
inline ExactResult seed_wins(const IncumbentSeed& seed, std::int64_t eps_den,
                             ExactSearchStats& stats) {
  stats.termination = ExactTermination::Solved;
  stats.seed_won = true;
  ExactResult result;
  result.trace = seed.trace;
  result.cost = Rational(seed.g_scaled, eps_den);
  result.states_expanded = stats.states_expanded;
  return result;
}

/// The throwing entry points' tail: the result, or an InvariantError naming
/// why `solver` ended without one.
inline ExactResult result_or_throw(std::optional<ExactResult> result,
                                   ExactTermination why,
                                   const std::string& solver) {
  if (result) return std::move(*result);
  switch (why) {
    case ExactTermination::Exhausted:
      throw InvariantError(solver +
                           " exhausted the reachable configuration graph "
                           "without a complete state");
    case ExactTermination::MemoryBudget:
      throw InvariantError(solver + " exceeded its memory budget");
    default:
      throw InvariantError(solver + " exceeded its state budget");
  }
}

/// The width dispatch: runs search.template operator()<Packed, Masks>() on
/// the narrowest key and mask types covering n nodes — one-word masks up to
/// 64 nodes (over one-word keys to 21, two-word keys to 42 and runtime-width
/// keys beyond), two-word masks to 128, runtime-width masks past that.
template <class Search>
auto dispatch_search_width(std::size_t n, Search&& search) {
  if (n <= PackedKey<1>::max_nodes()) {
    return search.template operator()<PackedKey<1>, Masks<1>>();
  }
  if (n <= PackedKey<2>::max_nodes()) {
    return search.template operator()<PackedKey<2>, Masks<1>>();
  }
  if (n <= StateBoundEvaluator::kMaskMaxNodes) {
    return search.template operator()<PackedKey<0>, Masks<1>>();
  }
  if (n <= StateBoundEvaluator::kWideMaskMaxNodes) {
    return search.template operator()<PackedKey<0>, Masks<2>>();
  }
  return search.template operator()<PackedKey<0>, Masks<0>>();
}

}  // namespace rbpeb
