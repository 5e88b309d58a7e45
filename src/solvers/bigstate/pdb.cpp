#include "src/solvers/bigstate/pdb.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <tuple>
#include <type_traits>

#include "src/graph/dag_algorithms.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/pebble/bounds.hpp"
#include "src/solvers/bucket_queue.hpp"

namespace rbpeb {

std::vector<std::vector<NodeId>> partition_into_patterns(
    const Dag& dag, std::size_t max_pattern_size) {
  const std::size_t cap =
      std::clamp<std::size_t>(max_pattern_size, 1,
                              PatternDatabase::kMaxPatternSize);
  const std::size_t n = dag.node_count();
  std::vector<std::vector<NodeId>> patterns;
  std::vector<std::size_t> pattern_of(n, static_cast<std::size_t>(-1));
  for (NodeId v : topological_order(dag)) {
    // Count how many of v's direct predecessors each open pattern holds;
    // joining the densest one keeps ancestor cones together, which is where
    // the pebbling interaction the heuristic should see lives.
    std::size_t best = static_cast<std::size_t>(-1);
    std::size_t best_preds = 0;
    for (NodeId p : dag.predecessors(v)) {
      const std::size_t candidate = pattern_of[p];
      if (patterns[candidate].size() >= cap) continue;
      std::size_t preds_here = 0;
      for (NodeId q : dag.predecessors(v)) {
        if (pattern_of[q] == candidate) ++preds_here;
      }
      if (preds_here > best_preds) {
        best_preds = preds_here;
        best = candidate;
      }
    }
    if (best == static_cast<std::size_t>(-1)) {
      // No predecessor pattern has room (or v is a source): reuse the most
      // recently opened pattern when it has room — fewer, fuller patterns
      // mean fewer table lookups per evaluation — else open a fresh one.
      if (!patterns.empty() && patterns.back().size() < cap) {
        best = patterns.size() - 1;
      } else {
        patterns.emplace_back();
        best = patterns.size() - 1;
      }
    }
    pattern_of[v] = best;
    patterns[best].push_back(v);
  }
  return patterns;
}

PatternDatabase::PatternDatabase(const Engine& engine,
                                 std::size_t max_pattern_size,
                                 const StopPredicate& should_stop) {
  const Dag& dag = engine.dag();
  const std::size_t size =
      max_pattern_size == 0 ? kDefaultPatternSize : max_pattern_size;
  std::vector<std::vector<NodeId>> node_sets =
      partition_into_patterns(dag, size);
  const std::int64_t cost_cap =
      universal_search_ceiling_scaled(dag, engine.model());
  const obs::TraceSpan build_span("pdb.build", "patterns", node_sets.size());
  std::map<Shape, std::size_t> table_of_shape;
  patterns_ = std::move(node_sets);
  node_terms_.assign(dag.node_count(), NodeTerm{kNoTerm, 0});
  for (std::size_t p = 0; p < patterns_.size(); ++p) {
    if (aborted_) break;
    std::vector<NodeId>& nodes = patterns_[p];
    const obs::TraceSpan pattern_span("pdb.pattern", "width", nodes.size());
    // A sink-free pattern's abstract game requires nothing: every valid
    // projection is a goal at distance 0. It builds no table and adds
    // nothing to the sum.
    if (std::none_of(nodes.begin(), nodes.end(),
                     [&](NodeId v) { return dag.is_sink(v); })) {
      continue;
    }
    const Shape shape = canonicalize(dag, nodes);
    const auto t = static_cast<std::uint32_t>(terms_.size());
    std::uint32_t weight = 1;
    for (std::size_t i = 0; i < nodes.size(); ++i, weight *= 6) {
      node_terms_[nodes[i]] = {t, weight};
    }
    const auto [entry, fresh] =
        table_of_shape.try_emplace(shape, tables_.size());
    if (fresh) {
      tables_.emplace_back();
      build_pattern(engine, shape, tables_.back(), cost_cap, should_stop);
      table_bytes_ += tables_.back().size() * sizeof(std::int32_t);
    }
    // Growing tables_ moves the tables, never their storage.
    terms_.push_back({p, tables_[entry->second].data()});
  }
  // An aborted build's tables are discarded unread: it counts as no build.
  if (aborted_) return;
  auto& registry = obs::MetricsRegistry::instance();
  registry.counter("pdb.builds").add();
  registry.gauge("pdb.table_bytes").set(static_cast<std::int64_t>(table_bytes_));
}

PatternDatabase::Shape PatternDatabase::canonicalize(
    const Dag& dag, std::vector<NodeId>& nodes) {
  const std::size_t p = nodes.size();
  // In-pattern adjacency as bitmasks over the partition's positions.
  std::array<unsigned, kMaxPatternSize> preds{};
  std::array<unsigned, kMaxPatternSize> succs{};
  for (std::size_t i = 0; i < p; ++i) {
    for (NodeId u : dag.predecessors(nodes[i])) {
      for (std::size_t j = 0; j < p; ++j) {
        if (nodes[j] != u) continue;
        preds[i] |= 1u << j;
        succs[j] |= 1u << i;
      }
    }
  }
  // Depth: the longest in-pattern path ending at the node. It leads the
  // invariants, so every candidate order is topological and a position's
  // predecessor mask is final as soon as the position is filled.
  std::array<int, kMaxPatternSize> depth{};
  for (std::size_t round = 1; round < p; ++round) {
    for (std::size_t i = 0; i < p; ++i) {
      for (unsigned m = preds[i]; m != 0; m &= m - 1) {
        depth[i] = std::max(depth[i], depth[std::countr_zero(m)] + 1);
      }
    }
  }
  // (depth, source, sink, in-pattern in-degree, in-pattern out-degree)
  using Invariant = std::tuple<int, bool, bool, int, int>;
  std::array<Invariant, kMaxPatternSize> invariant{};
  for (std::size_t i = 0; i < p; ++i) {
    invariant[i] = {depth[i], dag.is_source(nodes[i]), dag.is_sink(nodes[i]),
                    std::popcount(preds[i]), std::popcount(succs[i])};
  }
  std::array<Invariant, kMaxPatternSize> slot = invariant;
  std::sort(slot.begin(), slot.begin() + static_cast<std::ptrdiff_t>(p));
  // Twins — same flags, same in-pattern predecessors and successors — swap
  // by an automorphism, so only the first unused one of a class is tried at
  // a position.
  std::array<std::size_t, kMaxPatternSize> twin{};
  for (std::size_t i = 0; i < p; ++i) {
    twin[i] = i;
    for (std::size_t j = 0; j < i; ++j) {
      if (invariant[j] == invariant[i] && preds[j] == preds[i] &&
          succs[j] == succs[i]) {
        twin[i] = twin[j];
        break;
      }
    }
  }

  // Depth-first over the candidate orders — position k takes a node whose
  // invariants are slot[k] — pruning any prefix whose predecessor masks
  // already exceed the least complete order's (best, best_at). The order
  // at hand is `at` (node per position), `position` (per placed node) and
  // `key` (predecessor mask per position).
  std::array<std::size_t, kMaxPatternSize> at{};
  std::array<std::size_t, kMaxPatternSize> position{};
  std::array<std::uint8_t, kMaxPatternSize> key{};
  unsigned used = 0;
  Shape best;
  best.width = static_cast<std::uint8_t>(p);
  std::array<std::size_t, kMaxPatternSize> best_at{};
  bool found = false;
  auto search = [&](auto& self, std::size_t k) -> void {
    if (k == p) {
      if (!found || key < best.preds) {
        best.preds = key;
        best_at = at;
        found = true;
      }
      return;
    }
    unsigned tried = 0;  // twin classes already placed at position k
    for (std::size_t i = 0; i < p; ++i) {
      if ((used >> i & 1u) != 0 || invariant[i] != slot[k] ||
          (tried >> twin[i] & 1u) != 0) {
        continue;
      }
      tried |= 1u << twin[i];
      unsigned mask = 0;
      for (unsigned m = preds[i]; m != 0; m &= m - 1) {
        mask |= 1u << position[std::countr_zero(m)];
      }
      key[k] = static_cast<std::uint8_t>(mask);
      if (found && std::lexicographical_compare(
                       best.preds.begin(), best.preds.begin() + k + 1,
                       key.begin(), key.begin() + k + 1)) {
        continue;
      }
      at[k] = i;
      position[i] = k;
      used |= 1u << i;
      self(self, k + 1);
      used &= ~(1u << i);
    }
  };
  search(search, 0);

  std::array<NodeId, kMaxPatternSize> partition_order{};
  std::copy(nodes.begin(), nodes.end(), partition_order.begin());
  for (std::size_t k = 0; k < p; ++k) {
    nodes[k] = partition_order[best_at[k]];
    // Every candidate order puts the same flags at position k: slot[k]'s.
    if (std::get<1>(slot[k])) best.sources |= 1u << k;
    if (std::get<2>(slot[k])) best.sinks |= 1u << k;
  }
  return best;
}

void PatternDatabase::build_pattern(const Engine& engine,
                                    const Shape& shape,
                                    std::vector<std::int32_t>& completion,
                                    std::int64_t cost_cap,
                                    const StopPredicate& should_stop) {
  const Model& model = engine.model();
  const PebblingConvention& conv = engine.convention();
  const std::size_t p = shape.width;
  const std::int64_t r = static_cast<std::int64_t>(engine.red_limit());
  const std::int64_t eps_num = model.epsilon().num();
  const std::int64_t eps_den = model.epsilon().den();
  constexpr unsigned kNone = digit(PebbleColor::None, false);
  constexpr unsigned kRed = digit(PebbleColor::Red, false);
  constexpr unsigned kBlue = digit(PebbleColor::Blue, false);
  constexpr unsigned kComputed = digit(PebbleColor::None, true);
  // The digits of the state at hand: each odometer's, then each popped
  // state decoded once.
  std::vector<unsigned> digits(p, 0);
  auto is_goal = [&] {
    for (unsigned m = shape.sinks; m != 0; m &= m - 1) {
      const unsigned color = digits[std::countr_zero(m)] % 3;
      if (conv.sinks_end_blue ? color != kBlue : color == kNone) return false;
    }
    return true;
  };
  // The goal sweep, the Dijkstra and the broadcast below are the only
  // unbounded loops in a PDB build; each polls the cooperative stop hook so
  // a cancelled solve is never pinned behind a 6^8-entry table (the
  // searches' poll cadence, scaled up — these iterations are far cheaper
  // than an expansion).
  constexpr std::size_t kStopPollMask = 0xFFFu;
  auto stopped = [&](std::size_t step) {
    if ((step & kStopPollMask) != 0 || !should_stop || !should_stop()) {
      return false;
    }
    aborted_ = true;
    return true;
  };

  // Backward Dijkstra from every complete projection over move pre-images,
  // into `distance` indexed by kRadix-ary digits: 6 for color + 3·computed,
  // 3 for the colors alone. False when the stop hook ended it. Distances
  // clamp at cost_cap (an underestimate, so still admissible — and never
  // reached in practice: cost_cap is the Section 3 universal ceiling for
  // the whole DAG, 134,593 on a 192-node compcost DAG). So the queue's
  // spine starts at one move's cost and doubles as the distances grow.
  auto solve = [&](auto radix, std::vector<std::int32_t>& distance) {
    constexpr std::size_t kRadix = decltype(radix)::value;
    // The computed digit a Compute lands on: none in the color game; 3 in
    // oneshot, where the pre-image must hold 0.
    constexpr unsigned kComputeFlag = kRadix == 3 ? 0 : kComputed;
    std::vector<std::size_t> weight(p + 1, 1);
    for (std::size_t i = 0; i < p; ++i) weight[i + 1] = kRadix * weight[i];
    distance.assign(weight[p], kUnreachable);
    const std::int64_t max_cost = std::max(eps_num, eps_den);
    BucketQueue<std::uint32_t> queue(static_cast<std::size_t>(max_cost) + 1);
    std::fill(digits.begin(), digits.end(), 0u);
    for (std::size_t index = 0; index < weight[p]; ++index) {
      if (stopped(index)) return false;
      if (is_goal()) {
        distance[index] = 0;
        queue.push(0, static_cast<std::uint32_t>(index));
      }
      for (std::size_t i = 0; i < p && ++digits[i] == kRadix; ++i) {
        digits[i] = 0;
      }
    }

    std::size_t pops = 0;
    while (!queue.empty()) {
      if (stopped(pops++)) return false;
      auto [d, popped] = queue.pop();
      const auto index = static_cast<std::size_t>(popped);
      if (distance[index] != d) continue;  // stale duplicate
      // Its pre-images cost at most one move more: make room for them here,
      // once per pop, which keeps the check out of the relaxations.
      const auto reach =
          static_cast<std::size_t>(std::min(d + max_cost, cost_cap));
      if (reach >= queue.bucket_count()) {
        queue.grow(std::min(static_cast<std::size_t>(cost_cap),
                            std::max(2 * queue.bucket_count(), reach)) +
                   1);
      }
      unsigned red_at = 0;  // positions holding a red pebble
      for (std::size_t i = 0, rest = index; i < p; ++i, rest /= kRadix) {
        digits[i] = static_cast<unsigned>(rest % kRadix);
        if (digits[i] % 3 == kRed) red_at |= 1u << i;
      }
      const std::int64_t red = std::popcount(red_at);
      // Each pre-image differs from the popped state at position i alone,
      // and is legal there under every rule of Engine::why_illegal that
      // mentions only pattern nodes — so a concrete-legal move is always
      // abstract-legal on the projection, which is what makes the table
      // admissible.
      for (std::size_t i = 0; i < p; ++i) {
        const unsigned to = digits[i];
        const unsigned computed = to - to % 3;
        auto relax = [&](unsigned from, std::int64_t cost) {
          const std::size_t pre = index - to * weight[i] + from * weight[i];
          const std::int64_t nd = std::min(d + cost, cost_cap);
          std::int32_t& entry = distance[pre];
          if (entry != kUnreachable && entry <= nd) return;
          entry = static_cast<std::int32_t>(nd);
          queue.push(nd, static_cast<std::uint32_t>(pre));
        };
        switch (to % 3) {
          case kRed: {
            // Load and Compute both need a free red pebble in the
            // pre-image, which holds one red fewer.
            if (red - 1 >= r) break;
            // Load lands on Red from Blue, computed untouched.
            relax(kBlue + computed, eps_den);
            // Compute lands on Red with the computed flag, from None or
            // Blue.
            if (computed != kComputeFlag) break;
            if (conv.sources_start_blue && (shape.sources >> i & 1u) != 0) {
              break;
            }
            if ((shape.preds[i] & ~red_at) != 0) break;  // an input not red
            relax(kNone, eps_num);
            relax(kBlue, eps_num);
            break;
          }
          case kBlue:
            relax(kRed + computed, eps_den);  // Store from Red
            break;
          case kNone:
            if (!model.allows_delete()) break;
            relax(kRed + computed, 0);  // Delete from Red or Blue
            relax(kBlue + computed, 0);
            break;
        }
      }
    }
    return true;
  };

  // Oneshot's Compute needs the flag clear: it plays all six digits.
  if (!model.allows_recompute()) {
    solve(std::integral_constant<std::size_t, 6>{}, completion);
    return;
  }
  // Elsewhere the flag is dead (no rule or goal reads it): play the 3^|P|
  // color game and broadcast it.
  std::vector<std::int32_t> colors;
  if (!solve(std::integral_constant<std::size_t, 3>{}, colors)) return;
  // The odometer steps a position's digit through the colors twice, flag
  // clear then set; the color index follows, falling back by 2·3^i where
  // the colors restart (digit 3, and the carry at 6).
  std::size_t table_size = 1;
  for (std::size_t i = 0; i < p; ++i) table_size *= 6;
  completion.resize(table_size);
  std::fill(digits.begin(), digits.end(), 0u);
  std::size_t color_index = 0;
  for (std::size_t index = 0; index < table_size; ++index) {
    if (stopped(index)) return;
    completion[index] = colors[color_index];
    for (std::size_t i = 0, weight = 1; i < p; ++i, weight *= 3) {
      if (++digits[i] % 3 != 0) {
        color_index += weight;
        break;
      }
      color_index -= 2 * weight;
      if (digits[i] < 6) break;
      digits[i] = 0;
    }
  }
}

}  // namespace rbpeb
